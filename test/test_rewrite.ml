(* Tests for the optimization passes added on top of constant folding and
   DCE, through [Ir.Rewrite.simplify]: value numbering (CSE) and the exact
   peephole rewrites. Semantics preservation is additionally fuzzed over
   the random-graph corpus. *)

module Dtype = Tensor.Dtype
module G = Ir.Graph
module B = Ir.Graph.Builder

let test_cse_shares_identical_apps () =
  let b = B.create () in
  let x = B.input b ~name:"x" Dtype.I8 [| 4 |] in
  let r1 = B.relu b x in
  let r2 = B.relu b x in
  let g = B.finish b ~output:(B.add b r1 r2) in
  let g' = Ir.Rewrite.simplify g in
  Alcotest.(check int) "one relu left" 2 (G.app_count g')

let test_cse_unifies_equal_constants () =
  let b = B.create () in
  let x = B.input b ~name:"x" Dtype.I8 [| 2; 4; 4 |] in
  let w () = Tensor.random (Util.Rng.create 3) Dtype.I8 [| 2; 2; 1; 1 |] in
  let c1 = B.const b (w ()) and c2 = B.const b (w ()) in
  let y1 = B.conv2d b x ~weights:c1 in
  let y2 = B.conv2d b x ~weights:c2 in
  let g = B.finish b ~output:(B.add b y1 y2) in
  let g' = Ir.Rewrite.simplify g in
  (* Equal weight tensors unify, then the two convs unify too. *)
  Alcotest.(check int) "conv shared" 2 (G.app_count g');
  let consts =
    List.filter (fun i -> match G.node g' i with G.Const _ -> true | _ -> false)
      (G.node_ids g')
  in
  Alcotest.(check int) "one const" 1 (List.length consts)

let test_cse_keeps_different_ops () =
  let b = B.create () in
  let x = B.input b ~name:"x" Dtype.I8 [| 2; 4; 4 |] in
  let p1 = B.max_pool b ~pool:(2, 2) ~stride:(2, 2) x in
  let p2 = B.avg_pool b ~pool:(2, 2) ~stride:(2, 2) x in
  let g = B.finish b ~output:(B.add b p1 p2) in
  let g' = Ir.Rewrite.simplify g in
  Alcotest.(check int) "nothing shared" 3 (G.app_count g')

let test_peephole_merges_shifts () =
  let b = B.create () in
  let x = B.input b ~name:"x" Dtype.I32 [| 4 |] in
  let s1 = B.const b (Tensor.scalar Dtype.I32 3) in
  let a = B.app b Ir.Op.Right_shift [ x; s1 ] in
  let s2 = B.const b (Tensor.scalar Dtype.I32 2) in
  let g = B.finish b ~output:(B.app b Ir.Op.Right_shift [ a; s2 ]) in
  let g' = Ir.Rewrite.simplify g in
  Alcotest.(check int) "one shift" 1 (G.app_count g');
  let input = Tensor.of_array Dtype.I32 [| 4 |] [| -1000; -31; 31; 1000 |] in
  Helpers.check_tensor "exact"
    (Ir.Eval.run g ~inputs:[ ("x", input) ])
    (Ir.Eval.run g' ~inputs:[ ("x", input) ])

let test_peephole_relu_idempotent () =
  let b = B.create () in
  let x = B.input b ~name:"x" Dtype.I8 [| 4 |] in
  let g = B.finish b ~output:(B.relu b (B.relu b x)) in
  let g' = Ir.Rewrite.simplify g in
  Alcotest.(check int) "one relu" 1 (G.app_count g')

let test_peephole_merges_reshapes () =
  let b = B.create () in
  let x = B.input b ~name:"x" Dtype.I8 [| 2; 3; 4 |] in
  let r1 = B.reshape b [| 24 |] x in
  let g = B.finish b ~output:(B.reshape b [| 4; 6 |] r1) in
  let g' = Ir.Rewrite.simplify g in
  Alcotest.(check int) "one reshape" 1 (G.app_count g');
  Alcotest.(check (list int)) "outer shape kept" [ 4; 6 ]
    (Array.to_list (Ir.Infer.output_ty g').Ir.Infer.shape)

let test_peephole_drops_redundant_clip () =
  let b = B.create () in
  let x = B.input b ~name:"x" Dtype.I32 [| 4 |] in
  let inner = B.app b (Ir.Op.Clip { lo = 0; hi = 100 }) [ x ] in
  let g = B.finish b ~output:(B.app b (Ir.Op.Clip { lo = -128; hi = 127 }) [ inner ]) in
  let g' = Ir.Rewrite.simplify g in
  Alcotest.(check int) "outer clip dropped" 1 (G.app_count g')

let test_peephole_keeps_narrowing_clip () =
  let b = B.create () in
  let x = B.input b ~name:"x" Dtype.I32 [| 4 |] in
  let inner = B.app b (Ir.Op.Clip { lo = -128; hi = 127 }) [ x ] in
  let g = B.finish b ~output:(B.app b (Ir.Op.Clip { lo = 0; hi = 10 }) [ inner ]) in
  let g' = Ir.Rewrite.simplify g in
  Alcotest.(check int) "both clips kept" 2 (G.app_count g')

let test_peephole_drops_identity_cast () =
  let b = B.create () in
  let x = B.input b ~name:"x" Dtype.I8 [| 4 |] in
  let g = B.finish b ~output:(B.relu b (B.app b (Ir.Op.Cast Dtype.I8) [ x ])) in
  let g' = Ir.Rewrite.simplify g in
  Alcotest.(check int) "cast dropped" 1 (G.app_count g')

let prop_simplify_preserves_random_graphs =
  Helpers.qtest ~count:60 "simplify preserves semantics on random graphs"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = Check.Gen.generate seed in
      let g' = Ir.Rewrite.simplify g in
      let inputs = Models.Zoo.random_input ~seed g in
      Tensor.equal (Ir.Eval.run g ~inputs) (Ir.Eval.run g' ~inputs))

let prop_simplify_never_grows =
  Helpers.qtest ~count:60 "simplify never grows the graph"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = Check.Gen.generate seed in
      G.app_count (Ir.Rewrite.simplify g) <= G.app_count g)

let prop_simplify_idempotent =
  Helpers.qtest ~count:30 "simplify is idempotent" QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = Ir.Rewrite.simplify (Check.Gen.generate seed) in
      G.app_count (Ir.Rewrite.simplify g) = G.app_count g)

let suites =
  [ ( "rewrite",
      [ Alcotest.test_case "cse shares apps" `Quick test_cse_shares_identical_apps;
        Alcotest.test_case "cse unifies constants" `Quick test_cse_unifies_equal_constants;
        Alcotest.test_case "cse keeps different ops" `Quick test_cse_keeps_different_ops;
        Alcotest.test_case "peephole shift merge" `Quick test_peephole_merges_shifts;
        Alcotest.test_case "peephole relu" `Quick test_peephole_relu_idempotent;
        Alcotest.test_case "peephole reshape merge" `Quick test_peephole_merges_reshapes;
        Alcotest.test_case "peephole clip drop" `Quick test_peephole_drops_redundant_clip;
        Alcotest.test_case "peephole clip keep" `Quick test_peephole_keeps_narrowing_clip;
        Alcotest.test_case "peephole cast drop" `Quick test_peephole_drops_identity_cast;
        prop_simplify_preserves_random_graphs;
        prop_simplify_never_grows;
        prop_simplify_idempotent;
      ] )
  ]
