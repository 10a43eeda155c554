(* Tests for lib/arch: tile geometry, DMA cost model, CPU model, the DIANA
   accelerator descriptions and rival-platform estimators. *)

module Dtype = Tensor.Dtype
module L = Ir.Layer
module Tile = Arch.Tile

module T = Tiling_fixtures

let conv_layer = T.conv_layer
let dw_layer = T.dw_layer
let dense_layer = T.dense_layer
let add_layer = T.add_layer

let test_tile_halo () =
  let l = conv_layer ~stride:2 ~f:3 () in
  let t = Tile.for_layer l ~c:16 ~k:8 ~oy:4 ~ox:4 in
  (* iy = (4-1)*2 + 3 = 9 *)
  Alcotest.(check int) "iy" 9 t.Tile.iy;
  Alcotest.(check int) "ix" 9 t.Tile.ix

let test_tile_full () =
  let l = conv_layer () in
  let t = Tile.full l in
  Alcotest.(check int) "k" 32 t.Tile.k;
  Alcotest.(check int) "oy" 32 t.Tile.oy;
  Alcotest.(check bool) "is_full" true (Tile.is_full l t);
  let smaller = Tile.for_layer l ~c:16 ~k:16 ~oy:32 ~ox:32 in
  Alcotest.(check bool) "partial not full" false (Tile.is_full l smaller)

let test_tile_depthwise_locks_c () =
  let l = dw_layer () in
  let t = Tile.for_layer l ~c:16 ~k:4 ~oy:8 ~ox:8 in
  Alcotest.(check int) "c follows k" 4 t.Tile.c

let test_tile_bytes () =
  let l = conv_layer ~c:16 ~k:32 ~f:3 () in
  let t = Tile.for_layer l ~c:16 ~k:8 ~oy:8 ~ox:8 in
  (* input 16 * 10 * 10, output 8 * 8 * 8, weights 8*(16*9 + 4 bias) *)
  Alcotest.(check int) "in" 1600 (Tile.bytes_in l t);
  Alcotest.(check int) "out" 512 (Tile.bytes_out l t);
  Alcotest.(check int) "weights" (8 * ((16 * 9) + 4)) (Tile.bytes_weights l t)

let test_tile_bytes_add_doubles_input () =
  let l = add_layer ~c:4 ~hw:8 () in
  let t = Tile.full l in
  Alcotest.(check int) "two operands" (2 * 4 * 8 * 8) (Tile.bytes_in l t)

let test_tile_count () =
  let l = conv_layer ~k:32 ~hw:32 () in
  let t = Tile.for_layer l ~c:16 ~k:8 ~oy:10 ~ox:32 in
  (* ceil(32/8) * ceil(32/10) * ceil(32/32) = 4 * 4 * 1 *)
  Alcotest.(check int) "count" 16 (Tile.count l t)

let test_tile_macs () =
  let l = conv_layer ~c:16 () in
  let t = Tile.for_layer l ~c:16 ~k:8 ~oy:4 ~ox:4 in
  Alcotest.(check int) "macs" (8 * 4 * 4 * 16 * 9) (Tile.macs l t);
  let dw = dw_layer () in
  let td = Tile.for_layer dw ~c:16 ~k:4 ~oy:4 ~ox:4 in
  Alcotest.(check int) "dw macs" (4 * 4 * 4 * 9) (Tile.macs dw td)

let test_dma_cost () =
  let dma = { Arch.Memory.setup_cycles = 40; per_chunk_cycles = 8; bytes_per_cycle = 8 } in
  Alcotest.(check int) "zero bytes free" 0 (Arch.Memory.transfer_cycles dma ~chunks:4 ~bytes:0);
  Alcotest.(check int) "formula" (40 + 32 + 128)
    (Arch.Memory.transfer_cycles dma ~chunks:4 ~bytes:1024)

(* DMA counters of one untiled layer simulated on the digital core: the
   chunk count its transfers were charged with shows in the cycles. *)
let untiled_dma layer =
  let input seed = Tensor.random (Util.Rng.create seed) layer.L.in_dtype layer.L.in_shape in
  let inputs = if layer.L.in2_shape = None then [ input 1 ] else [ input 1; input 2 ] in
  let _, counters, schedule = Test_sim.run_layer Arch.Diana.digital layer inputs in
  Alcotest.(check int) "one tile" 1 (Dory.Schedule.tile_count schedule);
  counters

let transfer = Arch.Memory.transfer_cycles Arch.Diana.platform.Arch.Platform.dma

let test_dma_chunks_coalesce () =
  let c = untiled_dma (conv_layer ~c:4 ~k:8 ~hw:8 ()) in
  (* A full-width window coalesces its rows: one chunk per channel, not
     one per (channel, row). *)
  Alcotest.(check int) "coalesced in" (transfer ~chunks:4 ~bytes:(4 * 8 * 8))
    c.Sim.Counters.dma_in;
  Alcotest.(check int) "coalesced out" (transfer ~chunks:8 ~bytes:(8 * 8 * 8))
    c.Sim.Counters.dma_out

let test_dma_chunks_add_doubles () =
  let c = untiled_dma (add_layer ~c:4 ~hw:8 ()) in
  Alcotest.(check int) "two operand streams" (transfer ~chunks:8 ~bytes:(2 * 4 * 8 * 8))
    c.Sim.Counters.dma_in;
  Alcotest.(check int) "one output stream" (transfer ~chunks:4 ~bytes:(4 * 8 * 8))
    c.Sim.Counters.dma_out

(* A conv on the host costs its MACs: [Cpu_model.op_cycles] of the
   convolution application the CPU kernel runs. *)
let test_cpu_layer_cycles_scale_with_macs () =
  let cycles (l : L.t) =
    match (l.L.kind, l.L.weights) with
    | L.Conv p, Some w ->
        Arch.Cpu_model.op_cycles Arch.Diana.cpu (Ir.Op.Conv2d p)
          [ { Ir.Infer.dtype = l.L.in_dtype; shape = l.L.in_shape };
            { Ir.Infer.dtype = Tensor.dtype w; shape = Tensor.shape w } ]
          { Ir.Infer.dtype = Dtype.I32; shape = l.L.out_shape }
    | _ -> Alcotest.fail "not a conv"
  in
  let small = conv_layer ~c:8 ~k:8 () and big = conv_layer ~c:32 ~k:32 () in
  Alcotest.(check bool) "16x macs -> much slower" true (cycles big > 10 * cycles small)

let test_digital_supports () =
  let d = Arch.Diana.digital in
  Alcotest.(check bool) "i8 conv ok" true (d.Arch.Accel.supports (conv_layer ()));
  Alcotest.(check bool) "stride2 ok" true (d.Arch.Accel.supports (conv_layer ~stride:2 ()));
  Alcotest.(check bool) "ternary conv rejected" false
    (d.Arch.Accel.supports (conv_layer ~wdtype:Dtype.Ternary ()));
  Alcotest.(check bool) "dw ok" true (d.Arch.Accel.supports (dw_layer ()));
  Alcotest.(check bool) "dense ok" true (d.Arch.Accel.supports (dense_layer ()));
  Alcotest.(check bool) "add ok" true (d.Arch.Accel.supports (add_layer ()));
  let big_kernel = conv_layer ~f:9 ~pad:4 () in
  Alcotest.(check bool) "9x9 kernel rejected" false (d.Arch.Accel.supports big_kernel)

let test_analog_supports () =
  let a = Arch.Diana.analog in
  Alcotest.(check bool) "ternary conv ok" true
    (a.Arch.Accel.supports (conv_layer ~wdtype:Dtype.Ternary ()));
  Alcotest.(check bool) "i8 conv rejected" false (a.Arch.Accel.supports (conv_layer ()));
  Alcotest.(check bool) "dense rejected" false (a.Arch.Accel.supports (dense_layer ()));
  Alcotest.(check bool) "add ok" true (a.Arch.Accel.supports (add_layer ()));
  (* 256 channels x 3x3 = 2304 rows > 1152: too tall for the macro. *)
  let too_tall = conv_layer ~c:256 ~k:16 ~hw:8 ~wdtype:Dtype.Ternary () in
  Alcotest.(check bool) "row-capacity rule" false (a.Arch.Accel.supports too_tall)

let test_digital_peak_throughput () =
  let l = conv_layer ~c:16 ~k:16 ~hw:32 () in
  let t = Tile.for_layer l ~c:16 ~k:16 ~oy:32 ~ox:32 in
  let cycles = Arch.Diana.digital.Arch.Accel.compute_cycles l t in
  let rate = float_of_int (Tile.macs l t) /. float_of_int cycles in
  Alcotest.(check (float 0.01)) "256 MACs/cycle at full alignment" 256.0 rate

let test_digital_misaligned_utilization () =
  let l = conv_layer ~c:17 ~k:16 ~hw:31 ~pad:1 () in
  let t = Tile.full l in
  let cycles = Arch.Diana.digital.Arch.Accel.compute_cycles l t in
  let rate = float_of_int (Tile.macs l t) /. float_of_int cycles in
  Alcotest.(check bool) "misalignment hurts" true (rate < 200.0)

let test_digital_dw_slow () =
  let l = dw_layer () in
  let t = Tile.full l in
  let cycles = Arch.Diana.digital.Arch.Accel.compute_cycles l t in
  let rate = float_of_int (Tile.macs l t) /. float_of_int cycles in
  Alcotest.(check bool) "dw uses few lanes" true (rate <= 4.0 +. 0.01)

let test_analog_compute_independent_of_k () =
  let a = Arch.Diana.analog in
  let l1 = conv_layer ~c:16 ~k:16 ~wdtype:Dtype.Ternary () in
  let l2 = conv_layer ~c:16 ~k:64 ~wdtype:Dtype.Ternary () in
  Alcotest.(check int) "columns are parallel"
    (a.Arch.Accel.compute_cycles l1 (Tile.full l1))
    (a.Arch.Accel.compute_cycles l2 (Tile.full l2))

let test_analog_weight_load_expensive () =
  let a = Arch.Diana.analog in
  let l = conv_layer ~c:64 ~k:64 ~wdtype:Dtype.Ternary () in
  let t = Tile.full l in
  Alcotest.(check bool) "macro programming dominates" true
    (a.Arch.Accel.weight_load_cycles l t > a.Arch.Accel.compute_cycles l t)

let test_utilization_bounds () =
  let l = conv_layer () in
  let t = Tile.for_layer l ~c:16 ~k:8 ~oy:7 ~ox:13 in
  let u = Arch.Accel.utilization Arch.Diana.digital l t in
  Alcotest.(check bool) "in (0,1]" true (u > 0.0 && u <= 1.0)

let test_platform_with_accels () =
  Alcotest.(check int) "both" 2 (List.length Arch.Diana.platform.Arch.Platform.accels);
  Alcotest.(check int) "digital only" 1
    (List.length Arch.Diana.digital_only.Arch.Platform.accels);
  Alcotest.(check int) "cpu only" 0 (List.length Arch.Diana.cpu_only.Arch.Platform.accels);
  Alcotest.check_raises "unknown accel" Not_found (fun () ->
      ignore (Arch.Platform.with_accels Arch.Diana.platform [ "npu" ]))

let test_ms_of_cycles () =
  Alcotest.(check (float 1e-9)) "260k cycles at 260MHz = 1ms" 1.0
    (Arch.Platform.ms_of_cycles Arch.Diana.platform 260_000)

let resnetish_graph () =
  let b = Ir.Graph.Builder.create () in
  let rng = Util.Rng.create 9 in
  let x = Ir.Graph.Builder.input b ~name:"x" Dtype.I8 [| 3; 32; 32 |] in
  let w = Ir.Graph.Builder.const b (Tensor.random rng Dtype.I8 [| 16; 3; 3; 3 |]) in
  let conv = Ir.Graph.Builder.conv2d b ~padding:(1, 1) x ~weights:w in
  let q = Ir.Graph.Builder.requantize b ~relu:true ~shift:8 ~out_dtype:Dtype.I8 conv in
  Ir.Graph.Builder.finish b ~output:q

let test_rivals_ordering () =
  let g = resnetish_graph () in
  let stm = Arch.Rivals.estimate_graph_ms Arch.Rivals.stm32_tvm g in
  let cmsis = Arch.Rivals.estimate_graph_ms Arch.Rivals.stm32_cmsis g in
  let gap9 = Arch.Rivals.estimate_graph_ms Arch.Rivals.gap9_gapflow g in
  Alcotest.(check bool) "all positive" true (stm > 0.0 && cmsis > 0.0 && gap9 > 0.0);
  Alcotest.(check bool) "gap9 fastest" true (gap9 < cmsis && cmsis <= stm)

let prop_tile_count_covers =
  Helpers.qtest ~count:100 "tile grid covers output"
    QCheck.(quad (int_range 1 32) (int_range 1 32) (int_range 1 32) (int_range 1 32))
    (fun (k, oy, ox, kt) ->
      let l = conv_layer ~c:16 ~k:(max k 1) ~hw:32 () in
      let full = Tile.full l in
      let t =
        Tile.for_layer l ~c:16 ~k:(min kt full.Tile.k) ~oy:(min oy full.Tile.oy)
          ~ox:(min ox full.Tile.ox)
      in
      Tile.count l t
      = Util.Ints.ceil_div full.Tile.k t.Tile.k
        * Util.Ints.ceil_div full.Tile.oy t.Tile.oy
        * Util.Ints.ceil_div full.Tile.ox t.Tile.ox)

let suites =
  [ ( "arch",
      [ Alcotest.test_case "tile halo" `Quick test_tile_halo;
        Alcotest.test_case "tile full" `Quick test_tile_full;
        Alcotest.test_case "tile dw locks c" `Quick test_tile_depthwise_locks_c;
        Alcotest.test_case "tile bytes" `Quick test_tile_bytes;
        Alcotest.test_case "tile add doubles input" `Quick test_tile_bytes_add_doubles_input;
        Alcotest.test_case "tile count" `Quick test_tile_count;
        Alcotest.test_case "tile macs" `Quick test_tile_macs;
        Alcotest.test_case "dma cost" `Quick test_dma_cost;
        Alcotest.test_case "dma chunk coalescing" `Quick test_dma_chunks_coalesce;
        Alcotest.test_case "dma add chunks" `Quick test_dma_chunks_add_doubles;
        Alcotest.test_case "cpu cycles scale" `Quick test_cpu_layer_cycles_scale_with_macs;
        Alcotest.test_case "digital supports" `Quick test_digital_supports;
        Alcotest.test_case "analog supports" `Quick test_analog_supports;
        Alcotest.test_case "digital peak" `Quick test_digital_peak_throughput;
        Alcotest.test_case "digital misaligned" `Quick test_digital_misaligned_utilization;
        Alcotest.test_case "digital dw slow" `Quick test_digital_dw_slow;
        Alcotest.test_case "analog k-parallel" `Quick test_analog_compute_independent_of_k;
        Alcotest.test_case "analog weight load" `Quick test_analog_weight_load_expensive;
        Alcotest.test_case "utilization bounds" `Quick test_utilization_bounds;
        Alcotest.test_case "platform with_accels" `Quick test_platform_with_accels;
        Alcotest.test_case "ms_of_cycles" `Quick test_ms_of_cycles;
        Alcotest.test_case "rivals ordering" `Quick test_rivals_ordering;
        prop_tile_count_covers;
      ] )
  ]
