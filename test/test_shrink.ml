(* Shrinker regression suite: known-bad predicates must converge to tiny
   reproducers, within a bounded number of predicate evaluations, and
   deterministically. Structural predicates (no compilation involved)
   keep these tests fast; the end-to-end path through Verdict runs once
   with a small check budget. *)

module G = Ir.Graph
module C = Htvm.Compile

let has_conv_k_div3 g =
  List.exists
    (fun id ->
      match G.node g id with
      | G.App { op = Ir.Op.Conv2d { groups = 1; _ }; args = [ _; w ] } -> (
          match G.node g w with
          | G.Const t -> (Tensor.shape t).(0) mod 3 = 0
          | _ -> false)
      | _ -> false)
    (G.node_ids g)

let has_depthwise g =
  List.exists
    (fun id ->
      match G.node g id with
      | G.App { op = Ir.Op.Conv2d { groups; _ }; _ } -> groups > 1
      | _ -> false)
    (G.node_ids g)

(* First generator seed whose graph satisfies [p] and has at least
   [min_ops] applications — deterministic, so the tests are too. *)
let find_seed ?(min_ops = 10) p =
  let rec go seed =
    if seed > 400 then Alcotest.fail "no seed satisfies the predicate"
    else
      let g = Check.Gen.generate seed in
      if p g && G.app_count g >= min_ops then (seed, g) else go (seed + 1)
  in
  go 0

let shrink_structural ?max_checks p g =
  Check.Shrink.shrink ?max_checks
    ~predicate:(fun _cfg g -> p g)
    (C.default_config Arch.Diana.platform)
    g

let test_converges_on_k_div3 () =
  let _, g = find_seed has_conv_k_div3 in
  let o = shrink_structural has_conv_k_div3 g in
  Alcotest.(check bool) "still fails" true (has_conv_k_div3 o.Check.Shrink.graph);
  Alcotest.(check bool) "valid graph" true
    (G.validate o.Check.Shrink.graph = Ok ());
  Alcotest.(check bool)
    (Printf.sprintf "converged to <= 5 ops (got %d)"
       (G.app_count o.Check.Shrink.graph))
    true
    (G.app_count o.Check.Shrink.graph <= 5);
  Alcotest.(check bool) "at least 5x smaller" true
    (G.app_count g >= 5 * G.app_count o.Check.Shrink.graph);
  Alcotest.(check bool) "bounded checks" true (o.Check.Shrink.checks <= 400)

let test_converges_on_depthwise () =
  let _, g = find_seed ~min_ops:6 has_depthwise in
  let o = shrink_structural has_depthwise g in
  Alcotest.(check bool) "still fails" true (has_depthwise o.Check.Shrink.graph);
  Alcotest.(check bool) "converged to <= 5 ops" true
    (G.app_count o.Check.Shrink.graph <= 5)

let test_deterministic () =
  let _, g = find_seed has_conv_k_div3 in
  let o1 = shrink_structural has_conv_k_div3 g in
  let o2 = shrink_structural has_conv_k_div3 g in
  Alcotest.(check string) "identical minimized graph"
    (Ir.Text.to_string o1.Check.Shrink.graph)
    (Ir.Text.to_string o2.Check.Shrink.graph);
  Alcotest.(check int) "identical check count" o1.Check.Shrink.checks
    o2.Check.Shrink.checks;
  Alcotest.(check int) "identical reduction count" o1.Check.Shrink.accepted
    o2.Check.Shrink.accepted

let test_respects_max_checks () =
  let _, g = find_seed has_conv_k_div3 in
  let o = shrink_structural ~max_checks:7 has_conv_k_div3 g in
  Alcotest.(check bool) "stops at the budget" true (o.Check.Shrink.checks <= 7);
  Alcotest.(check bool) "still fails" true (has_conv_k_div3 o.Check.Shrink.graph)

let test_simplifies_config_toward_default () =
  (* A pure-graph predicate lets every config knob reset: the minimized
     reproducer should carry the stock deployment, not the fuzzed one. *)
  let g = Check.Gen.generate 1 in
  let cfg =
    {
      (C.default_config Arch.Diana.platform) with
      C.memory_strategy = Dory.Memplan.No_reuse;
      jobs = 4;
      autotune_budget = Some 32;
    }
  in
  let o =
    Check.Shrink.shrink ~predicate:(fun _ g -> G.app_count g >= 1) cfg g
  in
  Alcotest.(check int) "graph fully minimized" 1 (G.app_count o.Check.Shrink.graph);
  Alcotest.(check int) "jobs reset" 1 o.Check.Shrink.config.C.jobs;
  Alcotest.(check bool) "autotune off" true
    (o.Check.Shrink.config.C.autotune_budget = None);
  Alcotest.(check bool) "planner back to reuse" true
    (o.Check.Shrink.config.C.memory_strategy = Dory.Memplan.Reuse)

let test_shrink_failure_preserves_class () =
  (* End to end through Verdict: minimizing under the "same class"
     predicate keeps the class — here a green case stays green while the
     graph shrinks, exercising compile-and-run on every accepted step. *)
  let seed = 0 in
  let g = Check.Gen.generate seed in
  let cfg = Check.Gen.random_config seed in
  let verdict = Check.run_case ~input_seed:seed cfg g in
  Alcotest.(check string) "starting class" "pass" (Check.class_of verdict);
  let o = Check.Shrink.shrink_failure ~max_checks:60 ~input_seed:seed cfg g verdict in
  Alcotest.(check bool) "strictly smaller" true
    (G.app_count o.Check.Shrink.graph < G.app_count g);
  Alcotest.(check string) "class preserved" "pass"
    (Check.class_of
       (Check.run_case ~input_seed:seed o.Check.Shrink.config o.Check.Shrink.graph))

let suites =
  [ ( "shrink",
      [ Alcotest.test_case "converges on k mod 3" `Quick test_converges_on_k_div3;
        Alcotest.test_case "converges on depthwise" `Quick test_converges_on_depthwise;
        Alcotest.test_case "deterministic" `Quick test_deterministic;
        Alcotest.test_case "respects max_checks" `Quick test_respects_max_checks;
        Alcotest.test_case "simplifies config" `Quick
          test_simplifies_config_toward_default;
        Alcotest.test_case "shrink_failure preserves class" `Quick
          test_shrink_failure_preserves_class;
      ] )
  ]
