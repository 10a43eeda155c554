(* Tests for lib/sim: byte memories, and the key soundness property of the
   whole reproduction — executing a DORY schedule through simulated L1/L2
   memories is bit-identical to the reference layer semantics. *)

module Dtype = Tensor.Dtype
module L = Ir.Layer
module T = Tiling_fixtures

let kib = Util.Ints.kib

(* --- Mem --- *)

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
  Alcotest.(check int) "low byte first" 0x0D (Sim.Mem.read_byte m 0);
  Alcotest.(check int) "high byte last" 0x0A (Sim.Mem.read_byte m 3)

let test_mem_fault () =
  let m = Sim.Mem.create "little" 16 in
  (try
     ignore (Sim.Mem.read_elt m Dtype.I32 14);
     Alcotest.fail "expected fault"
   with Sim.Mem.Fault msg ->
     Alcotest.(check bool) "names the memory" true (Helpers.contains msg "little"));
  try
    Sim.Mem.write_byte m (-1) 0;
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

(* The tensor codecs run in bulk. For every dtype they must match
   [read_elt]/[write_elt] in a loop: the ternary rot fold and the I16/I32
   sign extension on reads over arbitrary bytes, and on writes the same
   bytes, high-water mark and, for an out-of-range element, message. *)
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
        Sim.Mem.write_byte noise i (Util.Rng.int rng 256)
      done;
      let reads_match =
        Tensor.unsafe_data (Sim.Mem.read_tensor noise off dt [| n |])
        = Array.init n (fun i -> Sim.Mem.read_elt noise dt (off + (i * w)))
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
        (raised, Sim.Mem.high_water m, Sim.Mem.image m)
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
  Alcotest.(check int) "total" 18 (Sim.Counters.total_parts a)

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
  Alcotest.(check bool) "wall <= sum of parts" true
    (c.Sim.Counters.wall <= Sim.Counters.total_parts c)

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
  let m = List.hd (Byoc.Pattern.find_all g Byoc.Library.conv2d_pattern) in
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
  Alcotest.(check bool) "accel peak positive" true (Sim.Machine.accel_steps_peak report > 0)

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
        qtest_mem_bulk_codecs;
        Alcotest.test_case "counters" `Quick test_counters;
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
