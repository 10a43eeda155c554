(* Tests for output-stage pool fusion (DIANA executes "some pooling
   operations at the output", Sec. III-C): pattern capture, tiled
   execution exactness through the pooled-space window composition, and
   dispatch rules. *)

module Dtype = Tensor.Dtype
module B = Ir.Graph.Builder
module L = Ir.Layer
module T = Tiling_fixtures

let fused_layer ?(c = 8) ?(k = 16) ?(hw = 16) ?(f = 3) ?(pad = 1) ?(stride = 1)
    ?(pool = 2) ?(seed = 51) () =
  let base = T.conv_layer ~c ~k ~hw ~f ~pad ~stride ~seed () in
  let oh = base.L.out_shape.(1) and ow = base.L.out_shape.(2) in
  {
    base with
    L.fused_pool = Some { Ir.Op.pool = (pool, pool); pool_stride = (pool, pool) };
    out_shape = [| k; ((oh - pool) / pool) + 1; ((ow - pool) / pool) + 1 |];
  }

let input_for (l : L.t) seed = Tensor.random (Util.Rng.create seed) l.L.in_dtype l.L.in_shape

let run_fused ?(budget = Util.Ints.kib 256) layer =
  let tiling = Dory.Tiling.default_config ~l1_budget:budget in
  match Htvm.Lab.run_single_layer ~accel:Arch.Diana.digital ~tiling layer with
  | Ok r -> r
  | Error e -> Alcotest.failf "fused layer failed: %s" (Htvm.Lab.failure_to_string e)

let test_layer_semantics () =
  let l = fused_layer () in
  (match L.validate l with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid fused layer: %s" e);
  let x = input_for l 1 in
  let manual =
    Nn.Kernels.max_pool ~pool:(2, 2) ~stride:(2, 2)
      (L.execute { l with L.fused_pool = None; out_shape = [| 16; 16; 16 |] } x)
  in
  Helpers.check_tensor "pool after requant" manual (L.execute l x)

let test_describe_and_macs () =
  let l = fused_layer () in
  Alcotest.(check bool) "describe mentions pool" true
    (Helpers.contains (L.describe l) "+maxpool");
  (* MACs counted in pre-pool space: 16x16 conv output. *)
  Alcotest.(check int) "macs" (16 * 16 * 16 * 8 * 9) (L.macs l)

let test_tile_geometry () =
  let l = fused_layer () in
  let t = Arch.Tile.for_layer l ~c:8 ~k:16 ~oy:2 ~ox:2 in
  (* 2 pooled rows -> 4 conv rows -> 6 input rows (k3 s1). *)
  Alcotest.(check int) "iy through pool" 6 t.Arch.Tile.iy;
  Alcotest.(check (pair int int)) "conv extent" (4, 4)
    (Arch.Tile.conv_extent l t.Arch.Tile.oy t.Arch.Tile.ox)

let test_untiled_exact () =
  ignore (run_fused (fused_layer ()))

let test_tiled_exact () =
  (* Small L1 forces tiling; Lab asserts bit-exactness internally. *)
  let r = run_fused ~budget:(Util.Ints.kib 2) (fused_layer ~c:8 ~k:16 ~hw:16 ()) in
  Alcotest.(check bool) "actually tiled" true
    (Dory.Schedule.tile_count r.Htvm.Lab.schedule > 1)

let test_tiled_exact_strided_conv () =
  let r =
    run_fused ~budget:(Util.Ints.kib 2) (fused_layer ~hw:17 ~stride:2 ~pad:1 ~pool:2 ())
  in
  ignore r

let test_odd_geometry_exact () =
  (* Conv output 15x15 pooled 2x2 -> 7x7: the last conv row/col is unused
     by any complete pool window. *)
  let r = run_fused ~budget:(Util.Ints.kib 2) (fused_layer ~hw:15 ~pad:1 ()) in
  Alcotest.(check (list int)) "pooled dims"
    [ 16; 7; 7 ]
    (Array.to_list (Tensor.shape r.Htvm.Lab.output))

let test_pattern_matches_and_compiles () =
  let b = B.create () in
  let rng = Util.Rng.create 3 in
  let x = B.input b ~name:"x" Dtype.I8 [| 4; 12; 12 |] in
  let w = B.const b (Tensor.random rng Dtype.I8 [| 8; 4; 3; 3 |]) in
  let conv = B.conv2d b ~padding:(1, 1) x ~weights:w in
  let biased = B.bias_add b conv ~bias:(T.bias_tensor rng 8 |> B.const b) in
  let q = B.requantize b ~relu:true ~shift:9 ~out_dtype:Dtype.I8 biased in
  let pooled = B.max_pool b ~pool:(2, 2) ~stride:(2, 2) q in
  let g = B.finish b ~output:pooled in
  (* The fused pattern matches rooted at the pool. *)
  let found = Helpers.find_all g Byoc.Library.conv2d_pool_pattern in
  Alcotest.(check int) "one fused match" 1 (List.length found);
  (* End to end: one offloaded step, no CPU pool kernel. *)
  let cfg = Htvm.Compile.default_config Arch.Diana.digital_only in
  let artifact = Result.get_ok (Htvm.Compile.compile cfg g) in
  Alcotest.(check int) "single step" 1 (List.length artifact.Htvm.Compile.layers);
  let inputs = [ ("x", Tensor.random (Util.Rng.create 5) Dtype.I8 [| 4; 12; 12 |]) ] in
  let out, _ = Htvm.Compile.run artifact ~inputs in
  Helpers.check_tensor "fused == interpreter" (Ir.Eval.run g ~inputs) out

let test_avg_pool_not_fused () =
  (* Only max pooling commutes with requantization; avg stays on the host. *)
  let b = B.create () in
  let rng = Util.Rng.create 4 in
  let x = B.input b ~name:"x" Dtype.I8 [| 4; 8; 8 |] in
  let w = B.const b (Tensor.random rng Dtype.I8 [| 4; 4; 3; 3 |]) in
  let conv = B.conv2d b ~padding:(1, 1) x ~weights:w in
  let q = B.requantize b ~shift:9 ~out_dtype:Dtype.I8 conv in
  let pooled = B.avg_pool b ~pool:(2, 2) ~stride:(2, 2) q in
  let g = B.finish b ~output:pooled in
  let cfg = Htvm.Compile.default_config Arch.Diana.digital_only in
  let artifact = Result.get_ok (Htvm.Compile.compile cfg g) in
  Alcotest.(check int) "conv offloaded, pool on host" 2
    (List.length artifact.Htvm.Compile.layers)

let test_rules_reject_overlapping_pool () =
  let l = fused_layer () in
  let overlapping =
    { l with L.fused_pool = Some { Ir.Op.pool = (3, 3); pool_stride = (2, 2) } }
  in
  Alcotest.(check bool) "digital accepts non-overlap" true
    (Arch.Diana.digital.Arch.Accel.supports l);
  Alcotest.(check bool) "digital rejects overlap" false
    (Arch.Diana.digital.Arch.Accel.supports overlapping);
  Alcotest.(check bool) "nova rejects fused pool" false
    ((Arch.Platform.find_accel Arch.Nova.platform "nova_gemm16").Arch.Accel.supports l)

let prop_fused_pool_exact =
  Helpers.qtest ~count:40 "fused conv+pool exact over random geometry"
    QCheck.(quad (int_range 1 6) (int_range 1 12) (int_range 6 18) (pair (int_range 0 1) int))
    (fun (c, k, hw, (pad, seed)) ->
      let l = fused_layer ~c ~k ~hw ~pad ~seed () in
      match L.validate l with
      | Error _ -> true (* degenerate pooled dims *)
      | Ok () -> (
          let tiling = Dory.Tiling.default_config ~l1_budget:(Util.Ints.kib 2) in
          match Htvm.Lab.run_single_layer ~accel:Arch.Diana.digital ~tiling l with
          | Ok _ -> true (* Lab checks exactness internally *)
          | Error (Htvm.Lab.Infeasible _) -> true
          | Error (Htvm.Lab.Diverged _) -> false))

let suites =
  [ ( "fused-pool",
      [ Alcotest.test_case "layer semantics" `Quick test_layer_semantics;
        Alcotest.test_case "describe and macs" `Quick test_describe_and_macs;
        Alcotest.test_case "tile geometry" `Quick test_tile_geometry;
        Alcotest.test_case "untiled exact" `Quick test_untiled_exact;
        Alcotest.test_case "tiled exact" `Quick test_tiled_exact;
        Alcotest.test_case "strided conv exact" `Quick test_tiled_exact_strided_conv;
        Alcotest.test_case "odd geometry exact" `Quick test_odd_geometry_exact;
        Alcotest.test_case "pattern + compile" `Quick test_pattern_matches_and_compiles;
        Alcotest.test_case "avg pool stays on host" `Quick test_avg_pool_not_fused;
        Alcotest.test_case "overlap rejected" `Quick test_rules_reject_overlapping_pool;
        prop_fused_pool_exact;
      ] )
  ]
