module L = Ir.Layer
module Tile = Arch.Tile
module S = Dory.Schedule
module Dtype = Tensor.Dtype

type buffers = {
  in_offsets : int list;
  out_offset : int;
  weights_offset : int;
  bias_offset : int;
}

(* --- L1 scratch layout -------------------------------------------------- *)

type l1_layout = { in_size : int; out_size : int; slots : int }

let layout_of (s : S.t) =
  let l = s.S.layer in
  {
    in_size = Tile.bytes_in l s.S.nominal;
    out_size = Tile.bytes_out l s.S.nominal;
    slots = (if s.S.double_buffer && S.is_tiled s then 2 else 1);
  }

let in_base layout slot = (slot mod layout.slots) * layout.in_size
let out_base layout slot =
  (layout.slots * layout.in_size) + ((slot mod layout.slots) * layout.out_size)

(* --- DMA of 3-D slices --------------------------------------------------- *)

(* The walk of a [chans x rows x cols] window at (ch0, y0, x0) of a CHW
   tensor of dims (full_c, full_h, full_w) living at [l2_off], against a
   dense block at [l1_off]: [f l2_pos l1_pos len] once per contiguous run,
   in row order. A window of part rows is one run per row; a window of
   whole rows is one run per channel, since its rows abut in both L2 and
   L1, and a window of whole planes is one run, since its channels abut
   too. Returns (chunks, bytes) for the cost model, which counts a window
   of whole rows as one chunk per channel. *)
let window_walk ~elt_bytes ~l2_off ~l1_off ~full_h ~full_w ~ch0 ~y0 ~x0 ~chans ~rows
    ~cols f =
  let bytes_per_row = cols * elt_bytes in
  let run ch row len =
    f
      (l2_off + (((((ch0 + ch) * full_h) + (y0 + row)) * full_w + x0) * elt_bytes))
      (l1_off + (((ch * rows) + row) * bytes_per_row))
      len
  in
  if chans > 0 && rows > 0 then
    if cols <> full_w then
      for ch = 0 to chans - 1 do
        for row = 0 to rows - 1 do
          run ch row bytes_per_row
        done
      done
    else if rows = full_h then run 0 0 (chans * rows * bytes_per_row)
    else
      for ch = 0 to chans - 1 do
        run ch 0 (rows * bytes_per_row)
      done;
  ((if cols = full_w then chans else chans * rows), chans * rows * bytes_per_row)

(* DMA a window between L2 and L1; direction picks source and
   destination. *)
let copy_window ~l2 ~l1 ~to_l1 ~elt_bytes ~l2_off ~l1_off ~full_h ~full_w ~ch0 ~y0 ~x0
    ~chans ~rows ~cols =
  window_walk ~elt_bytes ~l2_off ~l1_off ~full_h ~full_w ~ch0 ~y0 ~x0 ~chans ~rows ~cols
    (fun l2_pos l1_pos len ->
      if to_l1 then Mem.blit ~src:l2 ~src_off:l2_pos ~dst:l1 ~dst_off:l1_pos ~len
      else Mem.blit ~src:l1 ~src_off:l1_pos ~dst:l2 ~dst_off:l2_pos ~len)

(* --- Tile computation ---------------------------------------------------- *)

(* Decode the dense L1 input block into a zero-padded tensor. *)
let padded_input ~l1 ~l1_off ~dtype ~chans ~rows ~cols ~pt ~pl ~pb ~pr =
  let h = pt + rows + pb and w = pl + cols + pr in
  let t = Tensor.create dtype [| chans; h; w |] in
  let elt_bytes = Dtype.sim_bytes dtype in
  for ch = 0 to chans - 1 do
    for row = 0 to rows - 1 do
      for col = 0 to cols - 1 do
        let v = Mem.read_elt l1 dtype (l1_off + ((((ch * rows) + row) * cols + col) * elt_bytes)) in
        Tensor.set t [| ch; pt + row; pl + col |] v
      done
    done
  done;
  t

let weight_slice ~l2 ~(l : L.t) ~weights_offset ~k0 ~kd =
  match l.L.weights with
  | None -> None
  | Some w ->
      let dt = Tensor.dtype w in
      let per_k =
        Tensor.numel w / Tensor.dim w 0 * Dtype.sim_bytes dt
      in
      let shape = Tensor.shape w in
      shape.(0) <- kd;
      Some (Mem.read_tensor l2 (weights_offset + (k0 * per_k)) dt shape)

let bias_slice ~l2 ~(l : L.t) ~bias_offset ~k0 ~kd =
  match l.L.bias with
  | None -> None
  | Some _ -> Some (Mem.read_tensor l2 (bias_offset + (4 * k0)) Dtype.I32 [| kd |])

(* Execute one tile instance functionally: L1 bytes -> L1 bytes. *)
let compute_instance ~l2 ~l1 ~buffers ~(s : S.t) ~layout ~slot
    (inst : S.instance) =
  let l = s.S.layer in
  let d = inst.S.dims in
  let in_off = in_base layout slot and out_off = out_base layout slot in
  let out_tensor =
    match l.L.kind with
    | L.Conv p ->
        let chans, rows, cols = S.input_slice_dims s inst in
        let input =
          padded_input ~l1 ~l1_off:in_off ~dtype:l.L.in_dtype ~chans ~rows ~cols
            ~pt:inst.S.pad_top ~pl:inst.S.pad_left ~pb:inst.S.pad_bottom
            ~pr:inst.S.pad_right
        in
        let dw = L.is_depthwise l in
        let weights =
          weight_slice ~l2 ~l ~weights_offset:buffers.weights_offset ~k0:inst.S.k0
            ~kd:d.Tile.k
        in
        let bias = bias_slice ~l2 ~l ~bias_offset:buffers.bias_offset ~k0:inst.S.k0 ~kd:d.Tile.k in
        let sliced =
          {
            l with
            L.kind =
              L.Conv
                {
                  p with
                  Nn.Kernels.padding = (0, 0);
                  groups = (if dw then d.Tile.k else p.Nn.Kernels.groups);
                };
            weights;
            bias;
            in_shape = Tensor.shape input;
            out_shape = [| d.Tile.k; d.Tile.oy; d.Tile.ox |];
          }
        in
        (* [L.execute] applies any fused output pooling after the requant,
           so the tile written back is already in pooled space. *)
        L.execute sliced input
    | L.Dense ->
        (* The input vector was DMA-ed to L1; read it from there. *)
        let input =
          let elt = Dtype.sim_bytes l.L.in_dtype in
          let t = Tensor.create l.L.in_dtype [| d.Tile.c |] in
          for i = 0 to d.Tile.c - 1 do
            Tensor.set_flat t i (Mem.read_elt l1 l.L.in_dtype (in_off + (i * elt)))
          done;
          t
        in
        let weights =
          weight_slice ~l2 ~l ~weights_offset:buffers.weights_offset ~k0:inst.S.k0
            ~kd:d.Tile.k
        in
        let bias = bias_slice ~l2 ~l ~bias_offset:buffers.bias_offset ~k0:inst.S.k0 ~kd:d.Tile.k in
        let sliced = { l with L.weights = weights; bias; out_shape = [| d.Tile.k |] } in
        L.execute sliced input
    | L.Add ->
        let chans = d.Tile.c and rows = d.Tile.oy and cols = d.Tile.ox in
        let elt = Dtype.sim_bytes l.L.in_dtype in
        let slab which =
          let t = Tensor.create l.L.in_dtype [| chans; rows; cols |] in
          let base = in_off + (which * chans * rows * cols * elt) in
          for i = 0 to (chans * rows * cols) - 1 do
            Tensor.set_flat t i (Mem.read_elt l1 l.L.in_dtype (base + (i * elt)))
          done;
          t
        in
        let a = slab 0 and b = slab 1 in
        let sliced =
          {
            l with
            L.in_shape = [| chans; rows; cols |];
            in2_shape = Some [| chans; rows; cols |];
            out_shape = [| chans; rows; cols |];
          }
        in
        L.execute sliced ~second:b a
    | L.Pool _ ->
        let chans, rows, cols = S.input_slice_dims s inst in
        let input =
          padded_input ~l1 ~l1_off:in_off ~dtype:l.L.in_dtype ~chans ~rows ~cols
            ~pt:inst.S.pad_top ~pl:inst.S.pad_left ~pb:inst.S.pad_bottom
            ~pr:inst.S.pad_right
        in
        let sliced =
          {
            l with
            L.in_shape = Tensor.shape input;
            out_shape = [| d.Tile.k; d.Tile.oy; d.Tile.ox |];
          }
        in
        L.execute sliced input
  in
  (* Encode the tile's output densely into the L1 out slot. *)
  let dt = l.L.out_dtype in
  let elt = Dtype.sim_bytes dt in
  Tensor.iteri_flat (fun i v -> Mem.write_elt l1 dt (out_off + (i * elt)) v) out_tensor

(* --- Whole-schedule execution -------------------------------------------- *)

let dma_in ~l2 ~l1 ~buffers ~(s : S.t) ~layout ~slot (inst : S.instance) =
  let l = s.S.layer in
  let elt = Dtype.sim_bytes l.L.in_dtype in
  let base = in_base layout slot in
  match l.L.kind with
  | L.Dense ->
      let bytes = inst.S.dims.Tile.c * elt in
      Mem.blit ~src:l2 ~src_off:(List.hd buffers.in_offsets) ~dst:l1 ~dst_off:base
        ~len:bytes;
      (1, bytes)
  | L.Conv _ | L.Pool _ ->
      let chans, rows, cols = S.input_slice_dims s inst in
      let dw = L.is_depthwise l in
      let ch0 = if dw then inst.S.k0 else 0 in
      copy_window ~l2 ~l1 ~to_l1:true ~elt_bytes:elt
        ~l2_off:(List.hd buffers.in_offsets) ~l1_off:base ~full_h:l.L.in_shape.(1)
        ~full_w:l.L.in_shape.(2) ~ch0 ~y0:inst.S.iy0 ~x0:inst.S.ix0 ~chans ~rows ~cols
  | L.Add ->
      let chans = inst.S.dims.Tile.c
      and rows = inst.S.dims.Tile.oy
      and cols = inst.S.dims.Tile.ox in
      let slab_bytes = chans * rows * cols * elt in
      let copy which l2_off =
        copy_window ~l2 ~l1 ~to_l1:true ~elt_bytes:elt ~l2_off
          ~l1_off:(base + (which * slab_bytes)) ~full_h:l.L.in_shape.(1)
          ~full_w:l.L.in_shape.(2) ~ch0:0 ~y0:inst.S.oy0 ~x0:0 ~chans ~rows ~cols
      in
      let offs =
        match buffers.in_offsets with
        | [ a; b ] -> [ (0, a); (1, b) ]
        | _ -> invalid_arg "Exec_accel: add layer needs two input buffers"
      in
      List.fold_left
        (fun (c, b) (which, off) ->
          let c', b' = copy which off in
          (c + c', b + b'))
        (0, 0) offs

let dma_out ~l2 ~l1 ~buffers ~(s : S.t) ~layout ~slot (inst : S.instance) =
  let l = s.S.layer in
  let elt = Dtype.sim_bytes l.L.out_dtype in
  let base = out_base layout slot in
  match l.L.kind with
  | L.Dense ->
      let bytes = inst.S.dims.Tile.k * elt in
      Mem.blit ~src:l1 ~src_off:base ~dst:l2
        ~dst_off:(buffers.out_offset + (inst.S.k0 * elt))
        ~len:bytes;
      (1, bytes)
  | L.Conv _ | L.Pool _ | L.Add ->
      let chans = inst.S.dims.Tile.k
      and rows = inst.S.dims.Tile.oy
      and cols = inst.S.dims.Tile.ox in
      copy_window ~l2 ~l1 ~to_l1:false ~elt_bytes:elt ~l2_off:buffers.out_offset
        ~l1_off:base ~full_h:l.L.out_shape.(1) ~full_w:l.L.out_shape.(2)
        ~ch0:inst.S.k0 ~y0:inst.S.oy0 ~x0:inst.S.ox0 ~chans ~rows ~cols

(* Wall-clock reconstruction, shared by the per-request slow path and the
   execution plan's build step (Plan records the emitted intervals once and
   replays them per request). Each engine interval is placed where the cost
   model says it runs; returns the fault-free wall. *)
let timeline ~double_buffer ~engine ~overhead ~t0 ~din ~wls ~ccs ~dout ~bin ~bout
    ~emit =
  let n = Array.length din in
  let tile_args i bytes = [ ("tile", Trace.Json.Int i); ("bytes", Trace.Json.Int bytes) ] in
  emit ~track:"host" ~ts:t0 ~dur:overhead
    ~args:[ ("tiles", Trace.Json.Int n) ]
    (engine ^ " setup");
  if double_buffer && n > 1 then begin
    (* Two-stage pipeline: while tile i computes, tile i+1 prefetches and
       tile i-1 writes back. *)
    let cur = ref (t0 + overhead) in
    emit ~track:"dma" ~ts:!cur ~dur:din.(0) ~args:(tile_args 0 bin.(0)) "dma_in";
    cur := !cur + din.(0);
    for i = 0 to n - 1 do
      let prefetch = if i + 1 < n then din.(i + 1) else 0 in
      let writeback = if i > 0 then dout.(i - 1) else 0 in
      emit ~track:engine ~ts:!cur ~dur:wls.(i) ~args:(tile_args i 0) "weight_load";
      emit ~track:engine ~ts:(!cur + wls.(i)) ~dur:ccs.(i) ~args:(tile_args i 0)
        "compute";
      if prefetch > 0 then
        emit ~track:"dma" ~ts:!cur ~dur:prefetch ~args:(tile_args (i + 1) bin.(i + 1))
          "dma_in";
      if writeback > 0 then
        emit ~track:"dma" ~ts:(!cur + prefetch) ~dur:writeback
          ~args:(tile_args (i - 1) bout.(i - 1))
          "dma_out";
      cur := !cur + max (wls.(i) + ccs.(i)) (prefetch + writeback)
    done;
    emit ~track:"dma" ~ts:!cur ~dur:dout.(n - 1)
      ~args:(tile_args (n - 1) bout.(n - 1))
      "dma_out";
    cur := !cur + dout.(n - 1);
    !cur - t0
  end
  else begin
    (* Sequential tiles; the weight-memory port is separate from L1, so
       each tile's weight fill still overlaps its input DMA. *)
    let cur = ref (t0 + overhead) in
    for i = 0 to n - 1 do
      emit ~track:"dma" ~ts:!cur ~dur:din.(i) ~args:(tile_args i bin.(i)) "dma_in";
      emit ~track:engine ~ts:!cur ~dur:wls.(i) ~args:(tile_args i 0) "weight_load";
      cur := !cur + max din.(i) wls.(i);
      emit ~track:engine ~ts:!cur ~dur:ccs.(i) ~args:(tile_args i 0) "compute";
      cur := !cur + ccs.(i);
      emit ~track:"dma" ~ts:!cur ~dur:dout.(i) ~args:(tile_args i bout.(i)) "dma_out";
      cur := !cur + dout.(i)
    done;
    !cur - t0
  end

let run ~platform ~accel ~l2 ~l1 ~buffers ?trace ?(t0 = 0) ?faults
    ?(retry_budget = 3) (s : S.t) =
  let l = s.S.layer in
  (match (l.L.kind, buffers.in_offsets) with
  | L.Add, [ _; _ ] | (L.Conv _ | L.Dense | L.Pool _), [ _ ] -> ()
  | _ -> invalid_arg "Exec_accel.run: wrong number of input buffers");
  if l.L.weights <> None && buffers.weights_offset < 0 then
    invalid_arg "Exec_accel.run: layer has weights but no weight buffer";
  let layout = layout_of s in
  if layout.slots * (layout.in_size + layout.out_size) > Mem.size l1 then
    raise (Mem.Fault "L1 scratch exceeds L1 size");
  let dma = platform.Arch.Platform.dma in
  let c = Counters.create () in
  let rc = Resilience.make ?faults ~retry_budget c in
  let engine_site = Fault.Plan.Compute (Some accel.Arch.Accel.accel_name) in
  let n = List.length s.S.instances in
  let wls = Array.make n 0 in
  let ccs = Array.make n 0 in
  let din = Array.make n 0 in
  let dout = Array.make n 0 in
  let bin = Array.make n 0 in
  let bout = Array.make n 0 in
  List.iteri
    (fun i (inst : S.instance) ->
      let chunks_in, bytes_in = dma_in ~l2 ~l1 ~buffers ~s ~layout ~slot:i inst in
      din.(i) <- Arch.Memory.transfer_cycles dma ~chunks:chunks_in ~bytes:bytes_in;
      bin.(i) <- bytes_in;
      Resilience.guard rc ~site:Fault.Plan.Dma_in ~cycles:din.(i)
        ~flip_detected:true ();
      let wl =
        if inst.S.load_weights then accel.Arch.Accel.weight_load_cycles l inst.S.dims
        else 0
      in
      if inst.S.load_weights && l.L.weights <> None then
        Resilience.guard rc ~site:Fault.Plan.Weight_load ~cycles:wl
          ~flip_detected:true ();
      compute_instance ~l2 ~l1 ~buffers ~s ~layout ~slot:i inst;
      let cc = accel.Arch.Accel.compute_cycles l inst.S.dims in
      (* A silent compute flip corrupts the tile's dense L1 output slot
         just before it is DMA-ed back; a watchdog-caught [Drop] re-runs
         the tile (the clean result already in the slot stands for the
         successful re-run). *)
      Resilience.guard rc ~site:engine_site ~cycles:cc
        ~corrupt:(fun fs bits ->
          Resilience.flip_in_mem fs l1 ~base:(out_base layout i)
            ~bytes:(Tile.bytes_out l inst.S.dims) bits)
        ~flip_detected:false ();
      wls.(i) <- wl;
      ccs.(i) <- cc;
      c.Counters.accel_compute <- c.Counters.accel_compute + cc;
      c.Counters.weight_load <- c.Counters.weight_load + wl;
      let chunks_out, bytes_out = dma_out ~l2 ~l1 ~buffers ~s ~layout ~slot:i inst in
      dout.(i) <- Arch.Memory.transfer_cycles dma ~chunks:chunks_out ~bytes:bytes_out;
      bout.(i) <- bytes_out;
      Resilience.guard rc ~site:Fault.Plan.Dma_out ~cycles:dout.(i)
        ~flip_detected:true ();
      c.Counters.dma_in <- c.Counters.dma_in + din.(i);
      c.Counters.dma_out <- c.Counters.dma_out + dout.(i);
      c.Counters.dma_bytes_in <- c.Counters.dma_bytes_in + bytes_in;
      c.Counters.dma_bytes_out <- c.Counters.dma_bytes_out + bytes_out)
    s.S.instances;
  let overhead =
    accel.Arch.Accel.setup_cycles + (n * accel.Arch.Accel.tile_overhead_cycles)
  in
  c.Counters.host_overhead <- overhead;
  (* The wall-clock reconstruction doubles as the trace timeline: each
     engine interval is placed where the cost model says it runs. *)
  let engine = accel.Arch.Accel.accel_name in
  let on = Trace.enabled trace in
  let emit ~track ~ts ~dur ~args name =
    if on && dur > 0 then Trace.interval trace ~track ~ts ~dur ~args name
  in
  let wall =
    timeline ~double_buffer:s.S.double_buffer ~engine ~overhead ~t0 ~din ~wls ~ccs
      ~dout ~bin ~bout ~emit
  in
  (* Fault effects extend the step past its fault-free wall; the base
     counters (and the stall derived from them) keep clean values so
     [wall = fault_free_wall + retry_cycles + fault_stall]. *)
  Resilience.emit_events rc trace ~ts:(t0 + wall);
  c.Counters.stall <-
    max 0 (wall - overhead - c.Counters.accel_compute - c.Counters.weight_load);
  c.Counters.wall <- wall + c.Counters.retry_cycles + c.Counters.fault_stall;
  c
