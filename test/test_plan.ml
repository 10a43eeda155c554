(* Differential conformance for compiled execution plans (Sim.Plan): the
   fast path must be byte-identical to the slow oracle — output bytes,
   per-step counters, aggregate counters and trace events — on zoo models
   and randomly generated graphs/configs, fault-free and under fault
   sessions (where session stats and [Unrecovered] raises must match
   too). Plans are rejected for programs they were not built for. *)

module C = Htvm.Compile

let compare_counters label a b =
  List.iter2
    (fun (n, x) (_, y) -> Alcotest.(check int) (label ^ ": " ^ n) x y)
    (Sim.Counters.fields a) (Sim.Counters.fields b)

let compare_reports label (slow : Sim.Machine.report) (fast : Sim.Machine.report) =
  Alcotest.(check int)
    (label ^ ": step count")
    (List.length slow.Sim.Machine.per_step)
    (List.length fast.Sim.Machine.per_step);
  List.iter2
    (fun (n1, c1) (n2, c2) ->
      Alcotest.(check string) (label ^ ": step name") n1 n2;
      compare_counters (label ^ "/" ^ n1) c1 c2)
    slow.Sim.Machine.per_step fast.Sim.Machine.per_step;
  compare_counters (label ^ ": totals") slow.Sim.Machine.totals
    fast.Sim.Machine.totals

let compare_outputs label slow fast =
  if not (Tensor.equal slow fast) then
    Alcotest.failf "%s: plan output differs (max diff %d)" label
      (Tensor.max_abs_diff slow fast)

(* Trace events carry name/cat/track/ts/dur/kind/args; both paths are
   deterministic, so the full event lists must match structurally. *)
let compare_traces label slow fast =
  Alcotest.(check int)
    (label ^ ": trace event count")
    (List.length (Trace.events slow))
    (List.length (Trace.events fast));
  Alcotest.(check bool) (label ^ ": trace events identical") true
    (Trace.events slow = Trace.events fast)

(* Output bytes, per-step counters and trace events of one artifact on
   the plan path against the slow oracle, for two requests in a row:
   arena reuse across requests must not leak state. *)
let check_against_oracle label artifact g =
  let inputs = Models.Zoo.random_input ~seed:Check.Golden.input_seed g in
  let tr_slow = Trace.create () and tr_fast = Trace.create () in
  let out_slow, rep_slow = C.run ~trace:tr_slow ~use_plan:false artifact ~inputs in
  let out_fast, rep_fast = C.run ~trace:tr_fast artifact ~inputs in
  compare_outputs label out_slow out_fast;
  compare_reports label rep_slow rep_fast;
  compare_traces label tr_slow tr_fast;
  let inputs2 = Models.Zoo.random_input ~seed:(Check.Golden.input_seed + 1) g in
  let out_slow2, rep_slow2 = C.run ~use_plan:false artifact ~inputs:inputs2 in
  let out_fast2, rep_fast2 = C.run artifact ~inputs:inputs2 in
  compare_outputs (label ^ " (2nd request)") out_slow2 out_fast2;
  compare_reports (label ^ " (2nd request)") rep_slow2 rep_fast2

let compile_zoo model config =
  let entry = Models.Zoo.find model in
  let _, platform, policy =
    List.find (fun (c, _, _) -> c = config) Check.Golden.configurations
  in
  let g = entry.Models.Zoo.build policy in
  let cfg = { (C.default_config platform) with C.jobs = 1; C.solver_cache = None } in
  match C.compile cfg g with
  | Ok a -> (a, g)
  | Error e -> Alcotest.failf "%s/%s: %s" model config (C.error_to_string e)

(* All 16 Table I deployments: every kernel shape the zoo has (1x1 planes
   on ternary and int8 weights, padded and strided rows, depthwise,
   dense, residual adds, fused pools) crosses the plan path on a real
   network. The golden suite runs the plan path end to end; this pins the
   differential against the slow oracle including counters and traces,
   which digests cannot see. *)
let test_zoo_differential () =
  List.iter
    (fun (model, config) ->
      let artifact, g = compile_zoo model config in
      check_against_oracle (model ^ "/" ^ config) artifact g)
    Check.Golden.cases

(* One analog 1x1 conv whose ternary weights hold an all-zero output
   filter: the plan skips every tap of that channel, which must still come
   out as the requantized bias. *)
let test_zero_filter_differential () =
  let module B = Ir.Graph.Builder in
  let c = 8 and k = 8 and zero_k = 3 in
  let rng = Util.Rng.create 5 in
  let w = Tensor.random rng Tensor.Dtype.Ternary [| k; c; 1; 1 |] in
  for i = zero_k * c to ((zero_k + 1) * c) - 1 do
    Tensor.set_flat w i 0
  done;
  let b = B.create () in
  let x = B.input b ~name:"x" Tensor.Dtype.I8 [| c; 6; 6 |] in
  let y = B.conv2d b x ~weights:(B.const b w) in
  let bias = Tensor.of_array Tensor.Dtype.I32 [| k |] (Array.init k (fun i -> (97 * i) - 300)) in
  let y = B.bias_add b y ~bias:(B.const b bias) in
  let g = B.finish b ~output:(B.requantize b ~shift:3 ~out_dtype:Tensor.Dtype.I8 y) in
  let cfg =
    { (C.default_config Arch.Diana.analog_only) with C.jobs = 1; C.solver_cache = None }
  in
  let artifact = Result.get_ok (C.compile cfg g) in
  Alcotest.(check int) "the conv runs on the accelerator" 1
    (Sim.Plan.stats artifact.C.plan).Sim.Plan.accel_steps;
  check_against_oracle "zero filter" artifact g

(* Random graphs x random deployment configs: the fuzz generator's whole
   operator vocabulary (depthwise, strides, residual adds, concats,
   pooling, softmax heads, shrunken-L1 tilings) through both paths. *)
let test_random_differential () =
  let ran = ref 0 in
  for seed = 0 to 39 do
    let g = Check.Gen.generate seed in
    let cfg = { (Check.Gen.random_config seed) with C.solver_cache = None } in
    match C.compile cfg g with
    | Error _ -> () (* infeasible deployments are the fuzz suite's business *)
    | Ok artifact -> (
        let label = Printf.sprintf "seed %d" seed in
        let inputs = Models.Zoo.random_input ~seed g in
        match C.run ~use_plan:false artifact ~inputs with
        | exception e -> (
            (* If the slow oracle rejects the run, the plan path must fail
               identically — never silently produce bytes. *)
            match C.run artifact ~inputs with
            | exception e' ->
                Alcotest.(check string)
                  (label ^ ": same failure")
                  (Printexc.to_string e) (Printexc.to_string e')
            | _ ->
                Alcotest.failf "%s: slow path raised %s but plan path succeeded"
                  label (Printexc.to_string e))
        | out_slow, rep_slow ->
            incr ran;
            let out_fast, rep_fast = C.run artifact ~inputs in
            compare_outputs label out_slow out_fast;
            compare_reports label rep_slow rep_fast)
  done;
  Alcotest.(check bool) "enough random deployments actually ran" true (!ran >= 10)

let digital_artifact =
  lazy
    (let entry = Models.Zoo.find "resnet8" in
     let g = entry.Models.Zoo.build Models.Policy.All_int8 in
     let cfg =
       { (C.default_config Arch.Diana.digital_only) with
         C.jobs = 1; C.solver_cache = None }
     in
     (Result.get_ok (C.compile cfg g), g))

(* Plan stats agree with the program they were compiled from. *)
let test_stats () =
  let artifact, _ = Lazy.force digital_artifact in
  let stats = Sim.Plan.stats artifact.C.plan in
  let accel_steps =
    List.length
      (List.filter
         (function Sim.Program.Accel _ -> true | Sim.Program.Cpu _ -> false)
         artifact.C.program.Sim.Program.steps)
  in
  Alcotest.(check int) "accel steps" accel_steps stats.Sim.Plan.accel_steps;
  Alcotest.(check bool) "at least one tile per step" true
    (stats.Sim.Plan.tiles >= stats.Sim.Plan.accel_steps);
  Alcotest.(check bool) "scratch allocated" true (stats.Sim.Plan.scratch_words > 0);
  Alcotest.(check bool) "weight image captured" true (stats.Sim.Plan.image_bytes > 0);
  Alcotest.(check bool) "program identity" true
    (Sim.Plan.program artifact.C.plan == artifact.C.program)

(* The per-domain arena is cached across checkouts; [~fresh] discards it. *)
let test_arena_reuse () =
  let artifact, g = Lazy.force digital_artifact in
  let plan = artifact.C.plan in
  let l2a, l1a = Sim.Plan.checkout plan in
  let l2b, l1b = Sim.Plan.checkout plan in
  Alcotest.(check bool) "L2 reused" true (l2a == l2b);
  Alcotest.(check bool) "L1 reused" true (l1a == l1b);
  let l2c, _ = Sim.Plan.checkout ~fresh:true plan in
  Alcotest.(check bool) "fresh discards the cache" true (not (l2c == l2a));
  (* plan_fresh_arena reaches the same bytes through new allocations. *)
  let inputs = Models.Zoo.random_input ~seed:3 g in
  let out_reuse, rep_reuse = C.run artifact ~inputs in
  let out_fresh, rep_fresh =
    Sim.Machine.run ~platform:artifact.C.cfg.C.platform ~plan
      ~plan_fresh_arena:true artifact.C.program ~inputs
  in
  compare_outputs "fresh arena" out_reuse out_fresh;
  compare_reports "fresh arena" rep_reuse rep_fresh

(* An arena dies with its plan: building and running plan after plan on
   one domain must not keep their arenas alive. *)
let test_arena_dies_with_plan () =
  let _, platform, policy =
    List.find (fun (c, _, _) -> c = "both") Check.Golden.configurations
  in
  let g = (Models.Zoo.find "resnet8").Models.Zoo.build policy in
  let cfg = { (C.default_config platform) with C.jobs = 1; C.solver_cache = None } in
  let artifact = Result.get_ok (C.compile cfg g) in
  let inputs = Models.Zoo.random_input ~seed:1 g in
  let run () =
    let plan = Sim.Plan.build ~platform artifact.C.program in
    ignore (Sim.Machine.run ~platform ~plan artifact.C.program ~inputs)
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  run ();
  let before = live_words () in
  for _ = 1 to 50 do
    run ()
  done;
  let grown = live_words () - before in
  let arena_words =
    (Sim.Plan.stats artifact.C.plan).Sim.Plan.scratch_words
    + ((platform.Arch.Platform.l1.Arch.Memory.size_bytes
       + platform.Arch.Platform.l2.Arch.Memory.size_bytes)
      / (Sys.word_size / 8))
  in
  if grown >= arena_words then
    Alcotest.failf "50 plans grew the live heap by %d words (one arena is %d)" grown
      arena_words

(* --- Faulted differentials ---------------------------------------------- *)

(* Everything observable about one faulted run: the result or the raise,
   the session's campaign stats and the full trace, partial on a raise. *)
type faulted = {
  f_result : (Tensor.t * Sim.Machine.report, exn) result;
  f_stats : Fault.Session.stats;
  f_events : Trace.event list;
}

let run_faulted ~use_plan ~retry_budget artifact ~inputs plan =
  let fs = Fault.Session.create plan in
  let tr = Trace.create () in
  let f_result =
    match C.run ~trace:tr ~faults:fs ~retry_budget ~use_plan artifact ~inputs with
    | r -> Ok r
    | exception e -> Error e
  in
  { f_result; f_stats = Fault.Session.stats fs; f_events = Trace.events tr }

let exn_label = function
  | Fault.Session.Unrecovered { site; attempts } ->
      Printf.sprintf "Unrecovered {site = %s; attempts = %d}" site attempts
  | e -> Printexc.to_string e

(* First differing (name, value) field of two same-shaped field lists. *)
let fields_diff label a b =
  List.find_map
    (fun ((n, x), (_, y)) ->
      if x = y then None else Some (Printf.sprintf "%s %s: %d vs %d" label n x y))
    (List.combine a b)

let counters_diff label a b =
  fields_diff label (Sim.Counters.fields a) (Sim.Counters.fields b)

(* The first observable difference between the oracle's run and the
   plan's, or [None] when they are byte-identical. *)
let faulted_diff oracle plan =
  let ( >>? ) d f = match d with Some _ -> d | None -> f () in
  (match (oracle.f_result, plan.f_result) with
  | Error e, Error e' ->
      if exn_label e = exn_label e' then None
      else Some (Printf.sprintf "raise: %s vs %s" (exn_label e) (exn_label e'))
  | Error e, Ok _ -> Some ("oracle raised " ^ exn_label e ^ ", plan did not")
  | Ok _, Error e -> Some ("plan raised " ^ exn_label e ^ ", oracle did not")
  | Ok (o, r), Ok (o', r') ->
      (if Tensor.equal o o' then None
       else
         Some
           (Printf.sprintf "output differs (max diff %d)" (Tensor.max_abs_diff o o')))
      >>? fun () ->
      (if List.length r.Sim.Machine.per_step = List.length r'.Sim.Machine.per_step
       then
         List.find_map
           (fun ((n, c), (_, c')) -> counters_diff ("step " ^ n) c c')
           (List.combine r.Sim.Machine.per_step r'.Sim.Machine.per_step)
       else Some "step count differs")
      >>? fun () -> counters_diff "totals" r.Sim.Machine.totals r'.Sim.Machine.totals)
  >>? fun () ->
  fields_diff "session"
    (Fault.Session.stats_fields oracle.f_stats)
    (Fault.Session.stats_fields plan.f_stats)
  >>? fun () ->
  if oracle.f_events = plan.f_events then None
  else
    Some
      (Printf.sprintf "trace events differ (%d vs %d events)"
         (List.length oracle.f_events) (List.length plan.f_events))

let differential ~retry_budget artifact ~inputs plan =
  let oracle = run_faulted ~use_plan:false ~retry_budget artifact ~inputs plan in
  let fast = run_faulted ~use_plan:true ~retry_budget artifact ~inputs plan in
  (oracle, faulted_diff oracle fast)

(* Every site x kind, under always / every / nth / p= triggers. [l2] rot
   reaches the weight images the plan decoded at build time (the machine
   then hands the request to the oracle); the last spec, at retry budget
   0, must abort with [Unrecovered] on both paths. *)
let fault_specs =
  [ ("seed=1,dma_in@every=3:flip", 3);
    ("seed=2,dma_in@p=0.1:drop,dma_out@every=4:stall=40", 3);
    ("seed=3,dma_out@p=0.2:flip,dma_out@nth=2:drop", 3);
    ("seed=4,wload@every=2:flip,wload@p=0.3:stall=25", 3);
    ("seed=5,wload@nth=1:drop", 3);
    ("seed=6,compute@p=0.3:flip=2", 3);
    ("seed=7,compute@every=3:drop,compute@p=0.2:stall=17", 3);
    ("seed=8,l1@p=0.5:flip,l1@every=2:stall=9", 3);
    ("seed=9,l2@always:flip", 3);
    (* Single-bit rot is mostly masked by the requantizing shift; these
       flip enough weight bits to reach the output. *)
    ("seed=13,l2@nth=1:flip=64", 3);
    ("seed=14,l2@always:flip=16", 3);
    ("seed=10,l2@p=0.3:flip=3,l2@every=3:stall=11", 3);
    ("seed=11,dma_in@p=0.05:flip,compute@p=0.02:flip,l2@p=0.01:flip", 3);
    ("seed=12,dma_in@always:drop", 0);
  ]

(* One zoo model per deployment configuration, so every accelerator
   payload shape (cpu-only, digital, analog ternary, mixed) meets every
   fault spec. *)
let faulted_cases =
  [ ("ds_cnn", "cpu"); ("mobilenet_v1_025", "digital");
    ("toyadmos_dae", "analog"); ("resnet8", "both") ]

let test_zoo_faulted_differential () =
  let unrecovered = ref 0 and silent = ref 0 and detected = ref 0 in
  List.iter
    (fun (model, config) ->
      let artifact, g = compile_zoo model config in
      let inputs = Models.Zoo.random_input ~seed:Check.Golden.input_seed g in
      List.iter
        (fun (spec, retry_budget) ->
          let plan = Result.get_ok (Fault.Plan.of_string spec) in
          let oracle, diff = differential ~retry_budget artifact ~inputs plan in
          (match diff with
          | Some why -> Alcotest.failf "%s/%s [%s]: %s" model config spec why
          | None -> ());
          (match oracle.f_result with
          | Error (Fault.Session.Unrecovered _) -> incr unrecovered
          | _ -> ());
          silent := !silent + oracle.f_stats.Fault.Session.silent;
          detected := !detected + oracle.f_stats.Fault.Session.detected)
        fault_specs)
    faulted_cases;
  Alcotest.(check bool) "some run aborted Unrecovered" true (!unrecovered > 0);
  Alcotest.(check bool) "silent faults were injected" true (!silent > 0);
  Alcotest.(check bool) "detected faults were injected" true (!detected > 0)

(* Random graphs and chaos configs under their stock fault campaigns. A
   mismatch is minimized under the same campaign and reported as an
   [Ir.Text] reproducer. *)
let test_random_faulted_differential () =
  let ran = ref 0 in
  for seed = 0 to 39 do
    let g = Check.Gen.generate seed in
    let cfg = { (Check.Gen.chaos_config seed) with C.solver_cache = None } in
    let plan = Check.Gen.random_fault_plan seed in
    let diff_of artifact g =
      let inputs = Models.Zoo.random_input ~seed g in
      snd (differential ~retry_budget:3 artifact ~inputs plan)
    in
    match C.compile cfg g with
    | Error _ -> ()
    | Ok artifact -> (
        incr ran;
        match diff_of artifact g with
        | None -> ()
        | Some why ->
            let o =
              Check.Shrink.shrink ~max_checks:100
                ~predicate:(fun cfg g ->
                  match C.compile cfg g with
                  | Error _ -> false
                  | Ok a -> diff_of a g <> None)
                cfg g
            in
            Alcotest.failf "seed %d [%s]: %s\nminimized (%s):\n%s" seed
              (Fault.Plan.to_string plan) why
              (Check.describe_config o.Check.Shrink.config)
              (Ir.Text.to_string o.Check.Shrink.graph))
  done;
  Alcotest.(check bool) "enough random deployments actually ran" true (!ran >= 10)

(* Physical identity between plan and program is enforced, with or
   without a fault session. *)
let test_foreign_plan_rejected () =
  let artifact, g = Lazy.force digital_artifact in
  let cfg =
    { (C.default_config Arch.Diana.digital_only) with
      C.jobs = 1; C.solver_cache = None }
  in
  let artifact2 = Result.get_ok (C.compile cfg g) in
  let inputs = Models.Zoo.random_input ~seed:3 g in
  let session () =
    Fault.Session.create
      (Result.get_ok (Fault.Plan.of_string "seed=11,dma_in@every=3:flip"))
  in
  List.iter
    (fun (label, faults) ->
      match
        Sim.Machine.run ~platform:artifact.C.cfg.C.platform ?faults
          ~plan:artifact.C.plan artifact2.C.program ~inputs
      with
      | _ -> Alcotest.failf "a foreign plan was accepted (%s)" label
      | exception Invalid_argument _ -> ())
    [ ("fault-free", None); ("fault session", Some (session ())) ]

let suites =
  [ ( "plan",
      [ Alcotest.test_case "zoo differential" `Quick test_zoo_differential;
        Alcotest.test_case "zero filter differential" `Quick
          test_zero_filter_differential;
        Alcotest.test_case "random differential" `Quick test_random_differential;
        Alcotest.test_case "stats" `Quick test_stats;
        Alcotest.test_case "arena reuse" `Quick test_arena_reuse;
        Alcotest.test_case "arena dies with its plan" `Quick
          test_arena_dies_with_plan;
        Alcotest.test_case "zoo faulted differential" `Quick
          test_zoo_faulted_differential;
        Alcotest.test_case "random faulted differential" `Quick
          test_random_faulted_differential;
        Alcotest.test_case "foreign plan rejected" `Quick
          test_foreign_plan_rejected;
      ] )
  ]
