module L = Ir.Layer
module C = Dory.Chain
module Dtype = Tensor.Dtype

type buffers = {
  in_offset : int;
  out_offset : int;
  w1_offset : int;
  b1_offset : int;
  w2_offset : int;
  b2_offset : int;
}

let conv_params (l : L.t) =
  match l.L.kind with
  | L.Conv p -> p
  | _ -> invalid_arg "Exec_chain: chain layers must be convolutions"

let read_weights l2 (l : L.t) off =
  let w = Option.get l.L.weights in
  Mem.read_tensor l2 off (Tensor.dtype w) (Tensor.shape w)

let read_bias l2 (l : L.t) off =
  match l.L.bias with
  | None -> None
  | Some b -> Some (Mem.read_tensor l2 off Dtype.I32 (Tensor.shape b))

(* Read [rows] full-width rows starting at [row_lo] of a CHW activation at
   [l2_off] into a fresh tensor with [pt]/[pb] zero rows around them. *)
let load_rows_padded ~l2 ~l2_off ~dtype ~chans ~height ~width ~row_lo ~rows ~pt ~pb =
  let t = Tensor.create dtype [| chans; pt + rows + pb; width |] in
  let elt = Dtype.sim_bytes dtype in
  for ch = 0 to chans - 1 do
    for r = 0 to rows - 1 do
      for col = 0 to width - 1 do
        let v =
          Mem.read_elt l2 dtype
            (l2_off + ((((ch * height) + row_lo + r) * width + col) * elt))
        in
        Tensor.set t [| ch; pt + r; col |] v
      done
    done
  done;
  t

(* Write a full-width stripe of rows to its place in the L2 output. *)
let store_rows ~l2 ~l2_off ~height ~row_lo (t : Tensor.t) =
  let dtype = Tensor.dtype t in
  let elt = Dtype.sim_bytes dtype in
  let chans = Tensor.dim t 0 and rows = Tensor.dim t 1 and width = Tensor.dim t 2 in
  for ch = 0 to chans - 1 do
    for r = 0 to rows - 1 do
      for col = 0 to width - 1 do
        Mem.write_elt l2 dtype
          (l2_off + ((((ch * height) + row_lo + r) * width + col) * elt))
          (Tensor.get t [| ch; r; col |])
      done
    done
  done

let stripe_layer (l : L.t) ~in_rows ~out_rows =
  let p = conv_params l in
  {
    l with
    L.kind = L.Conv { p with Nn.Kernels.padding = (0, snd p.Nn.Kernels.padding) };
    in_shape = [| l.L.in_shape.(0); in_rows; l.L.in_shape.(2) |];
    out_shape = [| l.L.out_shape.(0); out_rows; l.L.out_shape.(2) |];
  }

let run ~platform ~accel ~l2 ~l1 ~buffers ?trace ?(t0 = 0) ?faults
    ?(retry_budget = 3) (t : C.t) =
  let c = Counters.create () in
  let rc = Resilience.make ?faults ~retry_budget c in
  let engine_site = Fault.Plan.Compute (Some accel.Arch.Accel.accel_name) in
  let dma = platform.Arch.Platform.dma in
  let first = t.C.first and second = t.C.second in
  let w1 = read_weights l2 first buffers.w1_offset
  and b1 = read_bias l2 first buffers.b1_offset
  and w2 = read_weights l2 second buffers.w2_offset
  and b2 = read_bias l2 second buffers.b2_offset in
  (* Weight memories are loaded once for the whole fused pair. *)
  let wl =
    accel.Arch.Accel.weight_load_cycles first (Arch.Tile.full first)
    + accel.Arch.Accel.weight_load_cycles second (Arch.Tile.full second)
  in
  c.Counters.weight_load <- wl;
  Resilience.guard rc ~site:Fault.Plan.Weight_load ~cycles:wl ~flip_detected:true ();
  let engine = accel.Arch.Accel.accel_name in
  let on = Trace.enabled trace in
  let emit ~track ~ts ~dur ?(args = []) name =
    if on && dur > 0 then Trace.interval trace ~track ~ts ~dur ~args name
  in
  emit ~track:"host" ~ts:t0 ~dur:(2 * accel.Arch.Accel.setup_cycles) (engine ^ " setup");
  emit ~track:engine ~ts:(t0 + (2 * accel.Arch.Accel.setup_cycles)) ~dur:wl
    "weight_load";
  let oh2 = second.L.out_shape.(1) in
  let o0 = ref 0 in
  let wall = ref ((2 * accel.Arch.Accel.setup_cycles) + wl) in
  while !o0 < oh2 do
    let n = min t.C.stripe_rows (oh2 - !o0) in
    let _mid_lo, mid_n, mid_pt, mid_pb = C.mid_rows_for t !o0 in
    let in_lo, in_n, in_pt, in_pb = C.in_rows_for t !o0 in
    (* 1. input stripe L2 -> L1 (modeled: we read rows directly and push
       the intermediate through L1 below; costs use the DMA model). *)
    let input =
      load_rows_padded ~l2 ~l2_off:buffers.in_offset ~dtype:first.L.in_dtype
        ~chans:first.L.in_shape.(0) ~height:first.L.in_shape.(1)
        ~width:first.L.in_shape.(2) ~row_lo:in_lo ~rows:in_n ~pt:in_pt ~pb:in_pb
    in
    let in_bytes = first.L.in_shape.(0) * in_n * first.L.in_shape.(2) in
    let din =
      Arch.Memory.transfer_cycles dma ~chunks:first.L.in_shape.(0) ~bytes:in_bytes
    in
    Resilience.guard rc ~site:Fault.Plan.Dma_in ~cycles:din ~flip_detected:true ();
    (* 2. first conv on the stripe; intermediate lives in L1 only. *)
    let l1_first = stripe_layer { first with L.weights = Some w1; bias = b1 }
        ~in_rows:(in_pt + in_n + in_pb) ~out_rows:mid_n
    in
    let cc1 =
      accel.Arch.Accel.compute_cycles first
        (Arch.Tile.for_layer first ~c:first.L.in_shape.(0) ~k:first.L.out_shape.(0)
           ~oy:mid_n ~ox:first.L.out_shape.(2))
    in
    let mid = L.execute l1_first input in
    (* The intermediate stripe lives in L1 between the two convolutions;
       a silent flip on the first compute corrupts it there. *)
    Mem.write_tensor l1 0 mid;
    Resilience.guard rc ~site:engine_site ~cycles:cc1
      ~corrupt:(fun fs bits ->
        Resilience.flip_in_mem fs l1 ~base:0 ~bytes:(Tensor.sim_bytes mid) bits)
      ~flip_detected:false ();
    let mid = Mem.read_tensor l1 0 (Tensor.dtype mid) (Tensor.shape mid) in
    (* 3. second conv consumes the intermediate stripe. *)
    let mid_padded =
      let k1 = Tensor.dim mid 0 and w1d = Tensor.dim mid 2 in
      let padded = Tensor.create (Tensor.dtype mid) [| k1; mid_pt + mid_n + mid_pb; w1d |] in
      Tensor.iteri_flat
        (fun i v ->
          let per_ch = mid_n * w1d in
          let ch = i / per_ch and rest = i mod per_ch in
          let r = rest / w1d and col = rest mod w1d in
          Tensor.set padded [| ch; mid_pt + r; col |] v)
        mid;
      padded
    in
    let l2_second = stripe_layer { second with L.weights = Some w2; bias = b2 }
        ~in_rows:(mid_pt + mid_n + mid_pb) ~out_rows:n
    in
    let out = L.execute l2_second mid_padded in
    let cc2 =
      accel.Arch.Accel.compute_cycles second
        (Arch.Tile.for_layer second ~c:second.L.in_shape.(0) ~k:second.L.out_shape.(0)
           ~oy:n ~ox:second.L.out_shape.(2))
    in
    (* 4. final stripe L1 -> L2. *)
    Mem.write_tensor l1 (Tensor.sim_bytes mid) out;
    Resilience.guard rc ~site:engine_site ~cycles:cc2
      ~corrupt:(fun fs bits ->
        Resilience.flip_in_mem fs l1 ~base:(Tensor.sim_bytes mid)
          ~bytes:(Tensor.sim_bytes out) bits)
      ~flip_detected:false ();
    let out =
      Mem.read_tensor l1 (Tensor.sim_bytes mid) (Tensor.dtype out)
        (Tensor.shape out)
    in
    store_rows ~l2 ~l2_off:buffers.out_offset ~height:oh2 ~row_lo:!o0 out;
    let out_bytes = second.L.out_shape.(0) * n * second.L.out_shape.(2) in
    let dout =
      Arch.Memory.transfer_cycles dma ~chunks:second.L.out_shape.(0) ~bytes:out_bytes
    in
    Resilience.guard rc ~site:Fault.Plan.Dma_out ~cycles:dout ~flip_detected:true ();
    c.Counters.accel_compute <- c.Counters.accel_compute + cc1 + cc2;
    c.Counters.dma_in <- c.Counters.dma_in + din;
    c.Counters.dma_out <- c.Counters.dma_out + dout;
    c.Counters.dma_bytes_in <- c.Counters.dma_bytes_in + in_bytes;
    c.Counters.dma_bytes_out <- c.Counters.dma_bytes_out + out_bytes;
    c.Counters.host_overhead <-
      c.Counters.host_overhead + (2 * accel.Arch.Accel.tile_overhead_cycles);
    let stripe_args = [ ("stripe_row", Trace.Json.Int !o0) ] in
    let cur = t0 + !wall in
    emit ~track:"dma" ~ts:cur ~dur:din
      ~args:(("bytes", Trace.Json.Int in_bytes) :: stripe_args)
      "dma_in";
    emit ~track:engine ~ts:(cur + din) ~dur:cc1 ~args:stripe_args "compute (first)";
    emit ~track:engine ~ts:(cur + din + cc1) ~dur:cc2 ~args:stripe_args
      "compute (second)";
    emit ~track:"dma" ~ts:(cur + din + cc1 + cc2) ~dur:dout
      ~args:(("bytes", Trace.Json.Int out_bytes) :: stripe_args)
      "dma_out";
    emit ~track:"host" ~ts:(cur + din + cc1 + cc2 + dout)
      ~dur:(2 * accel.Arch.Accel.tile_overhead_cycles)
      ~args:stripe_args "tile overhead";
    wall :=
      !wall + din + cc1 + cc2 + dout + (2 * accel.Arch.Accel.tile_overhead_cycles);
    o0 := !o0 + t.C.stripe_rows
  done;
  c.Counters.host_overhead <- c.Counters.host_overhead + (2 * accel.Arch.Accel.setup_cycles);
  Resilience.emit_events rc trace ~ts:(t0 + !wall);
  c.Counters.stall <-
    max 0
      (!wall - c.Counters.host_overhead - c.Counters.accel_compute
     - c.Counters.weight_load);
  c.Counters.wall <- !wall + c.Counters.retry_cycles + c.Counters.fault_stall;
  c
