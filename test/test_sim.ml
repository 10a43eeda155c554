(* Tests for lib/sim: byte memories, and the key soundness property of the
   whole reproduction — executing a DORY schedule through simulated L1/L2
   memories is bit-identical to the reference layer semantics. *)

module Dtype = Tensor.Dtype
module L = Ir.Layer
module T = Tiling_fixtures

let kib = Util.Ints.kib

(* --- Mem --- *)

(* Raw bytes through the I8 accessors: an I8 element is one byte. *)
let read_byte m off = Sim.Mem.read_elt m Dtype.I8 off land 0xFF
let write_byte m off v = Sim.Mem.write_elt m Dtype.I8 off (((v land 0xFF) lxor 0x80) - 0x80)

let test_mem_roundtrip_dtypes () =
  let m = Sim.Mem.create "m" 64 in
  List.iter
    (fun (dt, v) ->
      Sim.Mem.write_elt m dt 8 v;
      Alcotest.(check int) (Dtype.to_string dt) v (Sim.Mem.read_elt m dt 8))
    [ (Dtype.I8, -77); (Dtype.U7, 99); (Dtype.I16, -30000); (Dtype.I32, -2000000000);
      (Dtype.Ternary, -1) ]

let test_mem_little_endian () =
  let m = Sim.Mem.create "m" 8 in
  Sim.Mem.write_elt m Dtype.I32 0 0x0A0B0C0D;
  Alcotest.(check int) "low byte first" 0x0D (read_byte m 0);
  Alcotest.(check int) "high byte last" 0x0A (read_byte m 3)

let test_mem_fault () =
  let m = Sim.Mem.create "little" 16 in
  (try
     ignore (Sim.Mem.read_elt m Dtype.I32 14);
     Alcotest.fail "expected fault"
   with Sim.Mem.Fault msg ->
     Alcotest.(check bool) "names the memory" true (Helpers.contains msg "little"));
  try
    write_byte m (-1) 0;
    Alcotest.fail "expected fault"
  with Sim.Mem.Fault _ -> ()

let test_mem_range_check () =
  let m = Sim.Mem.create "m" 8 in
  try
    Sim.Mem.write_elt m Dtype.I8 0 300;
    Alcotest.fail "expected fault"
  with Sim.Mem.Fault _ -> ()

let test_mem_tensor_roundtrip () =
  let m = Sim.Mem.create "m" 1024 in
  let t = Tensor.random (Util.Rng.create 3) Dtype.I8 [| 4; 5; 3 |] in
  Sim.Mem.write_tensor m 100 t;
  Helpers.check_tensor "roundtrip" t (Sim.Mem.read_tensor m 100 Dtype.I8 [| 4; 5; 3 |]);
  let t32 = Tensor.random (Util.Rng.create 4) Dtype.I32 [| 7 |] in
  Sim.Mem.write_tensor m 200 t32;
  Helpers.check_tensor "i32 roundtrip" t32 (Sim.Mem.read_tensor m 200 Dtype.I32 [| 7 |])

(* The arena image: [encode_image]'s bytes, restored into a poisoned
   memory, hold every element of every image, with the gaps between
   images and the tail zeroed and the mark at the image's end. A bad image
   raises [write_tensor]'s own fault, as the same writes into a fresh
   memory of that name and size would. *)
let test_mem_encode_image () =
  let rng = Util.Rng.create 6 in
  let images =
    [ (0, Tensor.random rng Dtype.I8 [| 3; 5 |]);
      (16, Tensor.random rng Dtype.I32 [| 4 |]);
      (33, Tensor.random rng Dtype.Ternary [| 7 |]);
      (40, Tensor.random rng Dtype.I16 [| 2 |]) ]
  in
  let img = Sim.Mem.encode_image "m" 44 images in
  Alcotest.(check int) "image length" 44 (Bytes.length img);
  let m = Sim.Mem.create "m" 64 in
  Sim.Mem.fill m 0x5A;
  Sim.Mem.restore m img;
  List.iter
    (fun (off, t) ->
      let dt = Tensor.dtype t in
      for i = 0 to Tensor.numel t - 1 do
        Alcotest.(check int)
          (Printf.sprintf "%s element %d at %d" (Dtype.to_string dt) i off)
          (Tensor.get_flat t i)
          (Sim.Mem.read_elt m dt (off + (i * Dtype.sim_bytes dt)))
      done)
    images;
  List.iter
    (fun off ->
      Alcotest.(check int) (Printf.sprintf "byte %d zeroed" off) 0 (read_byte m off))
    (15 :: 32 :: List.init 20 (fun i -> 44 + i));
  Alcotest.(check int) "mark at the image's end" 44 (Sim.Mem.high_water m);
  let fault f =
    match f () with
    | _ -> Alcotest.fail "expected Mem.Fault"
    | exception Sim.Mem.Fault msg -> msg
  in
  let bad = Tensor.create Dtype.I8 [| 4 |] in
  (Tensor.unsafe_data bad).(2) <- 200;
  let bad_images = [ List.hd images; (20, bad) ] in
  Alcotest.(check string) "an out-of-range element: write_tensor's fault"
    (fault (fun () ->
         let fresh = Sim.Mem.create "m" 44 in
         List.iter (fun (off, t) -> Sim.Mem.write_tensor fresh off t) bad_images))
    (fault (fun () -> Sim.Mem.encode_image "m" 44 bad_images));
  Alcotest.(check string) "an image past the memory: the bounds fault"
    "m: access of 4 byte(s) at offset 42 outside [0, 44)"
    (fault (fun () -> Sim.Mem.encode_image "m" 44 [ (42, snd (List.nth images 3)) ]));
  Alcotest.(check int) "no images, no bytes" 0
    (Bytes.length (Sim.Mem.encode_image "m" 0 []))

(* The element decoding every read shares, spelled out from the bytes:
   little-endian, sign-extended, a ternary byte outside {-1,0,1} folded
   back into range. *)
let decode_reference m (dt : Dtype.t) off =
  let b i = read_byte m (off + i) in
  let sext bits v = (v lsl (Sys.int_size - bits)) asr (Sys.int_size - bits) in
  match dt with
  | Dtype.I8 -> sext 8 (b 0)
  | Dtype.Ternary ->
      let v = sext 8 (b 0) in
      if v >= -1 && v <= 1 then v else (((v mod 3) + 3) mod 3) - 1
  | Dtype.U7 -> b 0 land 0x7F
  | Dtype.I16 -> sext 16 (b 0 lor (b 1 lsl 8))
  | Dtype.I32 -> sext 32 (b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24))

(* The tensor codecs and [dot] run in bulk. For every dtype they must
   match [read_elt]/[write_elt] in a loop, and reads the reference
   decoding, over arbitrary bytes (the ternary rot fold, the I16/I32 sign
   extension); on writes the same bytes, high-water mark and, for an
   out-of-range element, message. *)
let qtest_mem_bulk_codecs =
  let dtypes = [| Dtype.I8; Dtype.U7; Dtype.I16; Dtype.I32; Dtype.Ternary |] in
  Helpers.qtest ~count:300 "mem tensor codecs match per-element"
    QCheck.(triple (int_range 0 4) (int_range 1 12) int)
    (fun (di, n, seed) ->
      let dt = dtypes.(di) in
      let w = Dtype.sim_bytes dt in
      let size = 64 in
      let rng = Util.Rng.create seed in
      let off = Util.Rng.int rng (size - (n * w) + 1) in
      let noise = Sim.Mem.create "m" size in
      for i = 0 to size - 1 do
        write_byte noise i (Util.Rng.int rng 256)
      done;
      let elts = Array.init n (fun i -> Sim.Mem.read_elt noise dt (off + (i * w))) in
      let weights = Array.init n (fun _ -> Util.Rng.int_in rng (-300) 300) in
      let reads_match =
        elts = Array.init n (fun i -> decode_reference noise dt (off + (i * w)))
        && Tensor.unsafe_data (Sim.Mem.read_tensor noise off dt [| n |]) = elts
        && Sim.Mem.dot noise dt off weights ~len:n
           = Array.fold_left ( + ) 0 (Array.map2 ( * ) elts weights)
      in
      let lo = Dtype.min_value dt and hi = Dtype.max_value dt in
      let values = Array.init n (fun _ -> Util.Rng.int_in rng lo hi) in
      (* Index [n] leaves every value in range. *)
      let bad = Util.Rng.int rng (n + 1) in
      if bad < n then values.(bad) <- (if Util.Rng.bool rng then hi + 1 else lo - 1);
      let tensor = Tensor.create dt [| n |] in
      Array.blit values 0 (Tensor.unsafe_data tensor) 0 n;
      let outcome write =
        let m = Sim.Mem.create "m" size in
        let raised = try write m; None with Sim.Mem.Fault msg -> Some msg in
        let bytes = String.init size (fun i -> Char.chr (read_byte m i)) in
        (raised, Sim.Mem.high_water m, bytes)
      in
      reads_match
      && outcome (fun m -> Sim.Mem.write_tensor m off tensor)
         = outcome (fun m ->
               Array.iteri (fun i v -> Sim.Mem.write_elt m dt (off + (i * w)) v) values))

let test_counters () =
  let a = Sim.Counters.create () and b = Sim.Counters.create () in
  a.Sim.Counters.accel_compute <- 10;
  a.Sim.Counters.weight_load <- 5;
  b.Sim.Counters.dma_in <- 3;
  Sim.Counters.add a b;
  Alcotest.(check int) "peak" 15 (Sim.Counters.peak a);
  Alcotest.(check int) "dma in added" 3 a.Sim.Counters.dma_in

(* --- DMA window walk --- *)

(* A window of a CHW tensor: (full_h, full_w) dims, (ch0, y0, x0) origin,
   (chans, rows, cols) extent. *)
type window = {
  full_h : int; full_w : int;
  ch0 : int; y0 : int; x0 : int;
  chans : int; rows : int; cols : int;
}

(* The (l2, l1) byte pairs of the row-by-row copy: every row of every
   channel, in order. *)
let row_reference_pairs ~elt_bytes ~l2_off ~l1_off w =
  let row_bytes = w.cols * elt_bytes in
  List.concat_map
    (fun ch ->
      List.concat_map
        (fun row ->
          let elt = ((((w.ch0 + ch) * w.full_h) + w.y0 + row) * w.full_w) + w.x0 in
          let l2 = l2_off + (elt * elt_bytes)
          and l1 = l1_off + (((ch * w.rows) + row) * row_bytes) in
          List.init row_bytes (fun i -> (l2 + i, l1 + i)))
        (List.init w.rows Fun.id))
    (List.init w.chans Fun.id)

(* Every call of the walk, expanded into byte pairs, is exactly the row
   reference; (chunks, bytes) is the row walk's; and a window of whole
   rows takes one call per channel, one of whole planes a single call. *)
let test_window_walk_runs () =
  let l2_off = 96 and l1_off = 5 in
  let win (full_h, full_w) (ch0, y0, x0) (chans, rows, cols) =
    { full_h; full_w; ch0; y0; x0; chans; rows; cols }
  in
  let windows =
    [
      ("part rows", win (6, 8) (1, 2, 3) (2, 3, 4));
      ("part rows of whole planes", win (6, 8) (0, 0, 0) (3, 6, 7));
      ("whole rows", win (6, 8) (1, 2, 0) (3, 2, 8));
      ("one whole row", win (5, 4) (2, 4, 0) (2, 1, 4));
      ("whole planes", win (6, 8) (2, 0, 0) (3, 6, 8));
      ("whole tensor", win (3, 5) (0, 0, 0) (4, 3, 5));
    ]
  in
  List.iter
    (fun elt_bytes ->
      List.iter
        (fun (name, w) ->
          let label = Printf.sprintf "%s, %d-byte elements" name elt_bytes in
          let pairs = ref [] and calls = ref 0 in
          let result =
            Sim.Exec_accel.window_walk ~elt_bytes ~l2_off ~l1_off ~full_h:w.full_h
              ~full_w:w.full_w ~ch0:w.ch0 ~y0:w.y0 ~x0:w.x0 ~chans:w.chans ~rows:w.rows
              ~cols:w.cols (fun l2 l1 len ->
                incr calls;
                for i = 0 to len - 1 do
                  pairs := (l2 + i, l1 + i) :: !pairs
                done)
          in
          Alcotest.(check (list (pair int int)))
            (label ^ ": byte pairs")
            (row_reference_pairs ~elt_bytes ~l2_off ~l1_off w)
            (List.rev !pairs);
          Alcotest.(check (pair int int))
            (label ^ ": (chunks, bytes)")
            ( (if w.cols = w.full_w then w.chans else w.chans * w.rows),
              w.chans * w.rows * w.cols * elt_bytes )
            result;
          Alcotest.(check int) (label ^ ": calls")
            (if w.cols < w.full_w then w.chans * w.rows
             else if w.rows < w.full_h then w.chans
             else 1)
            !calls)
        windows)
    [ 1; 2; 4 ]

(* --- Differential layer execution --- *)

(* Run one layer through the simulator: place buffers in L2, execute the
   schedule, read the result back. Returns (output, counters). *)
let run_layer ?(budget = kib 256) ?(db = true) ?(pe = true) accel (layer : L.t) inputs =
  let cfg =
    {
      Dory.Tiling.alpha = 1.0;
      use_pe_heuristics = pe;
      use_dma_heuristic = pe;
      double_buffer = db;
      l1_budget = budget;
    }
  in
  let sol =
    match Dory.Tiling.solve cfg accel layer with
    | Ok s -> s
    | Error e ->
        Alcotest.failf "tiling failed: %s" (Dory.Tiling.infeasible_to_string e)
  in
  let schedule =
    Dory.Schedule.build layer ~accel_name:accel.Arch.Accel.accel_name
      ~tile:sol.Dory.Tiling.tile ~double_buffer:db
  in
  let l2 = Sim.Mem.create "L2" (kib 512) in
  let l1 = Sim.Mem.create "L1" (kib 256) in
  Sim.Mem.fill l1 0x77;
  let numel shape = Array.fold_left ( * ) 1 shape in
  let in_bytes = numel layer.L.in_shape * Dtype.sim_bytes layer.L.in_dtype in
  let in_offsets, next =
    match inputs with
    | [ a ] ->
        Sim.Mem.write_tensor l2 0 a;
        ([ 0 ], in_bytes)
    | [ a; b ] ->
        Sim.Mem.write_tensor l2 0 a;
        Sim.Mem.write_tensor l2 in_bytes b;
        ([ 0; in_bytes ], 2 * in_bytes)
    | _ -> Alcotest.fail "run_layer: 1 or 2 inputs"
  in
  let out_offset = next in
  let out_bytes = numel layer.L.out_shape * Dtype.sim_bytes layer.L.out_dtype in
  let weights_offset, bias_offset =
    let woff = out_offset + out_bytes in
    match layer.L.weights with
    | None -> (-1, -1)
    | Some w ->
        Sim.Mem.write_tensor l2 woff w;
        let boff = woff + Tensor.sim_bytes w in
        (match layer.L.bias with
        | None -> ()
        | Some b -> Sim.Mem.write_tensor l2 boff b);
        (woff, if layer.L.bias = None then -1 else boff)
  in
  let buffers = { Sim.Exec_accel.in_offsets; out_offset; weights_offset; bias_offset } in
  let counters =
    Sim.Exec_accel.run ~platform:Arch.Diana.platform ~accel ~l2 ~l1 ~buffers schedule
  in
  let out =
    Sim.Mem.read_tensor l2 out_offset layer.L.out_dtype layer.L.out_shape
  in
  (out, counters, schedule)

let check_layer_differential ?(budget = kib 256) ?db accel layer inputs =
  let reference =
    match inputs with
    | [ a ] -> L.execute layer a
    | [ a; b ] -> L.execute layer ~second:b a
    | _ -> Alcotest.fail "bad inputs"
  in
  let out, _, schedule = run_layer ~budget ?db accel layer inputs in
  if not (Tensor.equal reference out) then
    Alcotest.failf "tiled execution differs for %s (%d tiles): max diff %d"
      (L.describe layer)
      (Dory.Schedule.tile_count schedule)
      (Tensor.max_abs_diff reference out)

let input_for (layer : L.t) seed = Tensor.random (Util.Rng.create seed) layer.L.in_dtype layer.L.in_shape

let test_conv_untiled_exact () =
  let layer = T.conv_layer ~c:8 ~k:8 ~hw:12 () in
  check_layer_differential Arch.Diana.digital layer [ input_for layer 1 ]

let test_conv_tiled_exact () =
  let layer = T.conv_layer ~c:16 ~k:32 ~hw:32 () in
  check_layer_differential ~budget:(kib 8) Arch.Diana.digital layer [ input_for layer 2 ]

let test_conv_tiled_strided_exact () =
  let layer = T.conv_layer ~c:16 ~k:32 ~hw:32 ~stride:2 ~pad:1 () in
  check_layer_differential ~budget:(kib 6) Arch.Diana.digital layer [ input_for layer 3 ]

let test_conv_single_buffered_exact () =
  let layer = T.conv_layer ~c:8 ~k:16 ~hw:24 () in
  check_layer_differential ~budget:(kib 6) ~db:false Arch.Diana.digital layer
    [ input_for layer 4 ]

let test_dw_tiled_exact () =
  let layer = T.dw_layer ~c:32 ~hw:24 () in
  check_layer_differential ~budget:(kib 4) Arch.Diana.digital layer [ input_for layer 5 ]

let test_dense_tiled_exact () =
  let layer = T.dense_layer ~c:640 ~k:128 () in
  check_layer_differential Arch.Diana.digital layer [ input_for layer 6 ]

let test_add_tiled_exact () =
  let layer = T.add_layer ~c:16 ~hw:24 () in
  check_layer_differential ~budget:(kib 4) Arch.Diana.digital layer
    [ input_for layer 7; input_for layer 8 ]

let test_analog_conv_exact () =
  let layer = T.conv_layer ~c:16 ~k:32 ~hw:16 ~wdtype:Dtype.Ternary () in
  check_layer_differential Arch.Diana.analog layer [ input_for layer 9 ]

let test_analog_conv_k_tiled_exact () =
  let layer = T.conv_layer ~c:8 ~k:600 ~hw:8 ~wdtype:Dtype.Ternary () in
  check_layer_differential Arch.Diana.analog layer [ input_for layer 10 ]

let prop_tiled_equals_reference =
  Helpers.qtest ~count:60 "tiled == reference over random geometry"
    QCheck.(
      quad (int_range 1 12) (int_range 1 20) (pair (int_range 1 2) (int_range 0 2))
        (pair (int_range 2 14) int))
    (fun (c, k, (stride, pad), (hw, seed)) ->
      let f = 3 in
      let hw = max hw (f + (2 * 0)) in
      let layer = T.conv_layer ~c ~k ~hw ~f ~stride ~pad ~seed () in
      if not (Arch.Diana.digital.Arch.Accel.supports layer) then true
      else
        let input = input_for layer seed in
        let reference = L.execute layer input in
        let budget = kib 2 in
        let cfg = Dory.Tiling.default_config ~l1_budget:budget in
        match Dory.Tiling.solve cfg Arch.Diana.digital layer with
        | Error _ -> true (* no feasible tile at this tiny budget *)
        | Ok _ ->
            let out, _, _ = run_layer ~budget Arch.Diana.digital layer [ input ] in
            Tensor.equal reference out)

let test_counters_sane () =
  let layer = T.conv_layer ~c:16 ~k:32 ~hw:32 () in
  let _, c, schedule = run_layer ~budget:(kib 8) Arch.Diana.digital layer [ input_for layer 11 ] in
  Alcotest.(check bool) "tiled" true (Dory.Schedule.tile_count schedule > 1);
  Alcotest.(check bool) "compute > 0" true (c.Sim.Counters.accel_compute > 0);
  Alcotest.(check bool) "weight load > 0" true (c.Sim.Counters.weight_load > 0);
  Alcotest.(check bool) "dma in > 0" true (c.Sim.Counters.dma_in > 0);
  Alcotest.(check bool) "dma out > 0" true (c.Sim.Counters.dma_out > 0);
  Alcotest.(check bool) "wall >= peak" true (c.Sim.Counters.wall >= Sim.Counters.peak c);
  let parts =
    Sim.Counters.(
      c.accel_compute + c.weight_load + c.dma_in + c.dma_out + c.host_overhead
      + c.cpu_compute + c.retry_cycles + c.fault_stall)
  in
  Alcotest.(check bool) "wall <= sum of parts" true (c.Sim.Counters.wall <= parts)

(* Execute a fixed schedule (same tiles) with and without DMA/compute
   overlap: overlap must never be slower. *)
let run_fixed_schedule layer schedule input =
  let l2 = Sim.Mem.create "L2" (kib 512) in
  let l1 = Sim.Mem.create "L1" (kib 256) in
  Sim.Mem.write_tensor l2 0 input;
  let numel shape = Array.fold_left ( * ) 1 shape in
  let out_offset = numel layer.L.in_shape in
  let woff = out_offset + numel layer.L.out_shape in
  Sim.Mem.write_tensor l2 woff (Option.get layer.L.weights);
  let boff = woff + Tensor.sim_bytes (Option.get layer.L.weights) in
  Sim.Mem.write_tensor l2 boff (Option.get layer.L.bias);
  Sim.Exec_accel.run ~platform:Arch.Diana.platform ~accel:Arch.Diana.digital ~l2 ~l1
    ~buffers:
      { Sim.Exec_accel.in_offsets = [ 0 ]; out_offset; weights_offset = woff;
        bias_offset = boff }
    schedule

let test_double_buffering_helps () =
  let layer = T.conv_layer ~c:16 ~k:32 ~hw:32 () in
  let input = input_for layer 12 in
  let tile = Arch.Tile.for_layer layer ~c:16 ~k:8 ~oy:8 ~ox:32 in
  let sched db =
    Dory.Schedule.build layer ~accel_name:"diana_digital" ~tile ~double_buffer:db
  in
  let c_db = run_fixed_schedule layer (sched true) input in
  let c_sb = run_fixed_schedule layer (sched false) input in
  Alcotest.(check bool) "overlap no slower" true
    (c_db.Sim.Counters.wall <= c_sb.Sim.Counters.wall);
  Alcotest.(check int) "same busy cycles" (Sim.Counters.peak c_sb) (Sim.Counters.peak c_db)

(* --- Machine: a hand-built program over one accel step + one CPU step --- *)

let test_machine_end_to_end () =
  let rng = Util.Rng.create 40 in
  let b = Ir.Graph.Builder.create () in
  let x = Ir.Graph.Builder.input b ~name:"x" Dtype.I8 [| 4; 8; 8 |] in
  let w = Ir.Graph.Builder.const b (Tensor.random rng Dtype.I8 [| 8; 4; 3; 3 |]) in
  let bias = Ir.Graph.Builder.const b (Tiling_fixtures.bias_tensor rng 8) in
  let conv = Ir.Graph.Builder.conv2d b ~padding:(1, 1) x ~weights:w in
  let biased = Ir.Graph.Builder.bias_add b conv ~bias in
  let q = Ir.Graph.Builder.requantize b ~relu:true ~shift:8 ~out_dtype:Dtype.I8 biased in
  let pool = Ir.Graph.Builder.max_pool b ~pool:(2, 2) ~stride:(2, 2) q in
  let g = Ir.Graph.Builder.finish b ~output:pool in
  let tys = Ir.Infer.infer g in
  (* Layer for the conv block. *)
  let m = List.hd (Helpers.find_all g Byoc.Library.conv2d_pattern) in
  let layer = Result.get_ok (Byoc.Extract.to_layer g tys m) in
  let accel = Arch.Diana.digital in
  let sol =
    Result.get_ok
      (Dory.Tiling.solve (Dory.Tiling.default_config ~l1_budget:(kib 256)) accel layer)
  in
  let schedule =
    Dory.Schedule.build layer ~accel_name:"diana_digital" ~tile:sol.Dory.Tiling.tile
      ~double_buffer:true
  in
  let wt = Option.get layer.Ir.Layer.weights and bt = Option.get layer.Ir.Layer.bias in
  let buffers =
    [
      { Sim.Program.buf_id = 0; b_dtype = Dtype.I8; b_shape = [| 4; 8; 8 |]; l2_offset = 0 };
      { Sim.Program.buf_id = 1; b_dtype = Dtype.I8; b_shape = [| 8; 8; 8 |]; l2_offset = 256 };
      { Sim.Program.buf_id = 2; b_dtype = Dtype.I8; b_shape = [| 8; 4; 4 |]; l2_offset = 1024 };
    ]
  in
  let weights_offset = 4096 in
  let bias_offset = weights_offset + Tensor.sim_bytes wt in
  let prog =
    {
      Sim.Program.graph = g;
      buffers;
      steps =
        [
          Sim.Program.Accel
            {
              accel_name = "diana_digital";
              schedule;
              ins = [ 0 ];
              out = 1;
              weights_offset;
              bias_offset;
            };
          Sim.Program.Cpu
            { kernel_name = "fused_maxpool"; nodes = [ pool ]; ins = [ (q, 1) ]; out = 2;
              cycles = 123 };
        ];
      input_buffers = [ ("x", 0) ];
      output_buffer = 2;
      weight_images = [ (weights_offset, wt); (bias_offset, bt) ];
      l2_activation_peak = 1536;
    }
  in
  (match Sim.Program.validate prog with
  | Ok () -> ()
  | Error e -> Alcotest.failf "program invalid: %s" e);
  let input = Tensor.random (Util.Rng.create 41) Dtype.I8 [| 4; 8; 8 |] in
  let out, report =
    Sim.Machine.run ~platform:Arch.Diana.platform prog ~inputs:[ ("x", input) ]
  in
  Helpers.check_tensor "machine == interpreter" (Ir.Eval.run g ~inputs:[ ("x", input) ]) out;
  Alcotest.(check int) "two steps reported" 2 (List.length report.Sim.Machine.per_step);
  Alcotest.(check bool) "cpu cycles counted" true
    (report.Sim.Machine.totals.Sim.Counters.cpu_compute = 123);
  Alcotest.(check bool) "accel peak positive" true (Sim.Counters.peak report.Sim.Machine.totals > 0)

let test_machine_missing_input () =
  let b = Ir.Graph.Builder.create () in
  let x = Ir.Graph.Builder.input b ~name:"x" Dtype.I8 [| 2 |] in
  let r = Ir.Graph.Builder.relu b x in
  let g = Ir.Graph.Builder.finish b ~output:r in
  let prog =
    {
      Sim.Program.graph = g;
      buffers =
        [
          { Sim.Program.buf_id = 0; b_dtype = Dtype.I8; b_shape = [| 2 |]; l2_offset = 0 };
          { Sim.Program.buf_id = 1; b_dtype = Dtype.I8; b_shape = [| 2 |]; l2_offset = 8 };
        ];
      steps =
        [ Sim.Program.Cpu { kernel_name = "relu"; nodes = [ r ]; ins = [ (x, 0) ]; out = 1; cycles = 1 } ];
      input_buffers = [ ("x", 0) ];
      output_buffer = 1;
      weight_images = [];
      l2_activation_peak = 16;
    }
  in
  Alcotest.check_raises "missing input" (Invalid_argument "Machine: missing input x")
    (fun () -> ignore (Sim.Machine.run ~platform:Arch.Diana.platform prog ~inputs:[]))

let suites =
  [ ( "sim",
      [ Alcotest.test_case "mem dtypes" `Quick test_mem_roundtrip_dtypes;
        Alcotest.test_case "mem little endian" `Quick test_mem_little_endian;
        Alcotest.test_case "mem fault" `Quick test_mem_fault;
        Alcotest.test_case "mem range check" `Quick test_mem_range_check;
        Alcotest.test_case "mem tensor roundtrip" `Quick test_mem_tensor_roundtrip;
        Alcotest.test_case "mem encode image" `Quick test_mem_encode_image;
        qtest_mem_bulk_codecs;
        Alcotest.test_case "counters" `Quick test_counters;
        Alcotest.test_case "window walk runs" `Quick test_window_walk_runs;
        Alcotest.test_case "conv untiled exact" `Quick test_conv_untiled_exact;
        Alcotest.test_case "conv tiled exact" `Quick test_conv_tiled_exact;
        Alcotest.test_case "conv strided tiled exact" `Quick test_conv_tiled_strided_exact;
        Alcotest.test_case "conv single-buffered exact" `Quick test_conv_single_buffered_exact;
        Alcotest.test_case "dw tiled exact" `Quick test_dw_tiled_exact;
        Alcotest.test_case "dense tiled exact" `Quick test_dense_tiled_exact;
        Alcotest.test_case "add tiled exact" `Quick test_add_tiled_exact;
        Alcotest.test_case "analog conv exact" `Quick test_analog_conv_exact;
        Alcotest.test_case "analog k-tiled exact" `Quick test_analog_conv_k_tiled_exact;
        prop_tiled_equals_reference;
        Alcotest.test_case "counters sane" `Quick test_counters_sane;
        Alcotest.test_case "double buffering helps" `Quick test_double_buffering_helps;
        Alcotest.test_case "machine end to end" `Quick test_machine_end_to_end;
        Alcotest.test_case "machine missing input" `Quick test_machine_missing_input;
      ] )
  ]
