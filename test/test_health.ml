(* The instance health lifecycle: state-machine unit walks (probation
   backoff escalation, probe-cost accounting, relapse paths), the
   determinism property (transition logs are pure functions of (seed,
   plan, config) at any fleet size / job count), the serve integration
   (mid-run degrade -> probation -> readmission with the tally still
   workers/jobs-invariant), and the chaos campaign sweep. *)

module B = Ir.Graph.Builder
module Dtype = Tensor.Dtype

(* --- unit: the state machine ------------------------------------------ *)

(* Deterministic small config: probes always pass. *)
let hcfg =
  {
    Health.fault_threshold = 2;
    probation_window = 100;
    probe_interval = 10;
    probe_cost = 5;
    pass_threshold = 2;
    backoff_cap = 1_600;
    probe_fail_prob = 0.0;
    probe_seed = 1;
  }

(* ["@<at> <from>-><to> (<cause>)"]: one transition of a log. *)
let transition_label (tr : Health.transition) =
  Printf.sprintf "@%d %s->%s (%s)" tr.Health.tr_at
    (Health.state_label tr.Health.tr_from)
    (Health.state_label tr.Health.tr_to)
    (Health.cause_label tr.Health.tr_cause)

(* The probation cooldown escalates on relapse as the capped exponential
   [Fault.Session.backoff_with], base [probation_window], cap
   [backoff_cap]; the walks below check the machine applies it. *)
let test_backoff_escalation () =
  let b r =
    Fault.Session.backoff_with ~base:hcfg.Health.probation_window
      ~cap:hcfg.Health.backoff_cap r
  in
  Alcotest.(check int) "relapse 1 = base" 100 (b 1);
  Alcotest.(check int) "relapse 2 doubles" 200 (b 2);
  Alcotest.(check int) "relapse 3 doubles again" 400 (b 3);
  Alcotest.(check int) "relapse 5 hits the cap" 1_600 (b 5);
  Alcotest.(check int) "relapse 9 stays at the cap" 1_600 (b 9);
  Alcotest.(check int) "huge relapse saturates (no shift overflow)" 1_600
    (b 10_000);
  (* The retry backoff is the same shape with the historical base/cap. *)
  Alcotest.(check int) "Fault.Session.backoff base" 8 (Fault.Session.backoff 1);
  Alcotest.(check int) "Fault.Session.backoff cap" 256 (Fault.Session.backoff 99);
  Alcotest.(check int) "backoff_with is min cap (base lsl (n-1))" 64
    (Fault.Session.backoff_with ~base:8 ~cap:256 4)

let test_lifecycle_walkthrough () =
  let t = Health.create hcfg ~instance:0 in
  Alcotest.(check bool) "starts eligible" true (Health.eligible t);
  Health.observe_faults t ~now:10 1;
  Alcotest.(check bool) "below threshold stays eligible" true (Health.eligible t);
  Health.observe_faults t ~now:20 1;
  Alcotest.(check bool) "threshold crossed degrades" false (Health.eligible t);
  Alcotest.(check int) "no probes before probation" 0 (Health.advance t ~now:119);
  (* Probation opens at 20 + 100; two 5-cycle probes, 10 apart, pass and
     readmit at 140. *)
  Alcotest.(check int) "two probes consumed" 10 (Health.advance t ~now:200);
  Alcotest.(check bool) "readmitted is eligible" true (Health.eligible t);
  Alcotest.(check int) "one readmission" 1 (Health.readmissions t);
  Alcotest.(check int) "one relapse" 1 (Health.relapses t);
  Alcotest.(check int) "both probes passed" 2 (Health.probes_passed t);
  Alcotest.(check int) "probe cycles accounted" 10 (Health.probe_cycles t);
  let labels = List.map transition_label (Health.transitions t) in
  Alcotest.(check (list string)) "exact transition log"
    [
      "@20 healthy->degraded (faults=2)";
      "@120 degraded->probation (window)";
      "@140 probation->readmitted (probe-pass)";
    ]
    labels

let test_probe_failure_escalates () =
  let t =
    Health.create ~degraded_at_start:true
      { hcfg with Health.probe_fail_prob = 1.0 }
      ~instance:0
  in
  Alcotest.(check bool) "boot-degraded" false (Health.eligible t);
  (* Probation at 100; every probe fails, so each relapse doubles the
     cooldown: probes finish at 105, 310, 715; the next window (1515)
     is past the horizon. *)
  let consumed = Health.advance t ~now:1_000 in
  Alcotest.(check int) "three failed probes consumed" 15 consumed;
  Alcotest.(check int) "three probe failures" 3 (Health.probes_failed t);
  Alcotest.(check int) "boot + three probe relapses" 4 (Health.relapses t);
  Alcotest.(check int) "no readmission" 0 (Health.readmissions t);
  let labels = List.map transition_label (Health.transitions t) in
  Alcotest.(check (list string)) "escalating windows in the log"
    [
      "@0 healthy->degraded (boot)";
      "@100 degraded->probation (window)";
      "@105 probation->degraded (probe-fail)";
      "@305 degraded->probation (window)";
      "@310 probation->degraded (probe-fail)";
      "@710 degraded->probation (window)";
      "@715 probation->degraded (probe-fail)";
    ]
    labels

let test_fault_during_probation_relapses () =
  let t = Health.create hcfg ~instance:0 in
  Health.observe_faults t ~now:0 2;
  ignore (Health.advance t ~now:100);
  Alcotest.(check string) "on probation" "probation"
    (Health.state_label (Health.state t));
  Health.observe_faults t ~now:100 1;
  Alcotest.(check string) "fault on probation re-degrades" "degraded"
    (Health.state_label (Health.state t));
  Alcotest.(check int) "relapse counted" 2 (Health.relapses t);
  (* The escalated cooldown: back on probation only at 100 + 200. *)
  ignore (Health.advance t ~now:299);
  Alcotest.(check string) "still cooling down" "degraded"
    (Health.state_label (Health.state t));
  ignore (Health.advance t ~now:300);
  Alcotest.(check string) "escalated window elapsed" "probation"
    (Health.state_label (Health.state t))

let test_faults_while_degraded_ignored () =
  let t = Health.create hcfg ~instance:0 in
  Health.observe_faults t ~now:0 2;
  let transitions_before = List.length (Health.transitions t) in
  Health.observe_faults t ~now:50 7;
  Alcotest.(check int) "no new transition" transitions_before
    (List.length (Health.transitions t));
  Alcotest.(check int) "relapse count unchanged" 1 (Health.relapses t);
  (* The cooldown was not extended: probation still opens at 100. *)
  ignore (Health.advance t ~now:100);
  Alcotest.(check string) "probation on schedule" "probation"
    (Health.state_label (Health.state t))

let test_validate_rejections () =
  let expect field cfg =
    match Health.validate cfg with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s accepted" field
  in
  expect "threshold 0" { hcfg with Health.fault_threshold = 0 };
  expect "window 0" { hcfg with Health.probation_window = 0 };
  expect "interval -1" { hcfg with Health.probe_interval = -1 };
  expect "cost 0" { hcfg with Health.probe_cost = 0 };
  expect "passes 0" { hcfg with Health.pass_threshold = 0 };
  expect "cap < window" { hcfg with Health.backoff_cap = 99 };
  expect "prob 1.5" { hcfg with Health.probe_fail_prob = 1.5 };
  expect "prob nan" { hcfg with Health.probe_fail_prob = Float.nan };
  Alcotest.(check bool) "default validates" true
    (Health.validate Health.default = Ok ());
  match Health.create { hcfg with Health.fault_threshold = 0 } ~instance:0 with
  | _ -> Alcotest.fail "create accepted an invalid config"
  | exception Invalid_argument _ -> ()

(* --- property: pure function of (seed, plan, config) ------------------ *)

let sim_plan = Result.get_ok (Fault.Plan.of_string "seed=11,dma_in@p=0.5:flip")

(* A standalone driver: instance [i] draws fault occurrences from a
   [Fault.Session] over [plan] reseeded per instance (mirroring the serve
   runtime's per-request reseeding), one batch of site draws per window,
   observed at each window close after advancing the machine there. One
   line per instance, ["inst <id> <label>; ..."] ([inst <id> -] when it
   made no transition); the fan-out runs on [Util.Pool]. *)
let simulate cfg ~plan ~instances ~windows ~window ~jobs =
  let sites = List.map (fun r -> r.Fault.Plan.site) plan.Fault.Plan.rules in
  let sim_one i =
    let t = Health.create cfg ~instance:i in
    let plan_i =
      { plan with Fault.Plan.seed = plan.Fault.Plan.seed + ((i + 1) * 1_000_003) }
    in
    let session = Fault.Session.create plan_i in
    for w = 0 to windows - 1 do
      let close = (w + 1) * window in
      ignore (Health.advance t ~now:close);
      let faults =
        List.fold_left
          (fun acc site -> acc + List.length (Fault.Session.draw session site))
          0 sites
      in
      Health.observe_faults t ~now:close faults
    done;
    match Health.transitions t with
    | [] -> Printf.sprintf "inst %d -" i
    | trs -> Printf.sprintf "inst %d %s" i (String.concat "; " (List.map transition_label trs))
  in
  let logs =
    Util.Pool.with_pool ~jobs (fun pool ->
        Util.Pool.map pool sim_one (List.init instances Fun.id))
  in
  String.concat "\n" logs

let prop_simulate_determinism =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 0 10_000 in
      let* fail = oneofl [ 0.0; 0.3; 1.0 ] in
      let* instances = int_range 1 6 in
      let* windows = int_range 1 20 in
      return (seed, fail, instances, windows))
  in
  let print (seed, fail, instances, windows) =
    Printf.sprintf "seed=%d fail=%g instances=%d windows=%d" seed fail
      instances windows
  in
  Helpers.qtest ~count:25 "health transition logs invariant over jobs and fleet"
    (QCheck.make ~print gen)
    (fun (seed, fail, instances, windows) ->
      let cfg =
        { hcfg with Health.probe_seed = seed; probe_fail_prob = fail }
      in
      let plan = { sim_plan with Fault.Plan.seed } in
      let sim ~instances ~jobs =
        simulate cfg ~plan ~instances ~windows ~window:37 ~jobs
      in
      let j1 = sim ~instances ~jobs:1 in
      (* jobs are a wall-clock knob *)
      j1 = sim ~instances ~jobs:4
      (* and instance streams are independent: instance 0's line is the
         same whatever the fleet size *)
      && List.hd (String.split_on_char '\n' j1)
         = List.hd (String.split_on_char '\n' (sim ~instances:1 ~jobs:1)))

(* --- serve integration ------------------------------------------------ *)

let fixture =
  lazy
    (let g =
       let b = B.create () in
       let rng = Util.Rng.create 8 in
       let x = B.input b ~name:"x" Dtype.I8 [| 4; 8; 8 |] in
       let w = B.const b (Tensor.random rng Dtype.I8 [| 8; 4; 3; 3 |]) in
       let conv = B.conv2d b ~padding:(1, 1) x ~weights:w in
       let q = B.requantize b ~relu:true ~shift:9 ~out_dtype:Dtype.I8 conv in
       B.finish b ~output:q
     in
     let artifact =
       Result.get_ok
         (Htvm.Compile.compile (Htvm.Compile.default_config Arch.Diana.digital_only) g)
     in
     (artifact, g))

let serve cfg =
  let artifact, g = Lazy.force fixture in
  Serve.run cfg artifact ~graph:g

let flip_plan = Result.get_ok (Fault.Plan.of_string "seed=3,dma_in@p=0.4:flip")
let base = { Serve.default with Serve.requests = 12; max_batch = 3 }

(* Small explicit lifecycle relative to the fixture's ~100k-cycle
   service time: readmission lands well inside a batch gap. *)
let serve_hcfg =
  {
    Health.fault_threshold = 3;
    probation_window = 2_000;
    probe_interval = 0;
    probe_cost = 100;
    pass_threshold = 2;
    backoff_cap = 16_000;
    probe_fail_prob = 0.0;
    probe_seed = 1;
  }

(* The acceptance scenario: an instance degrading mid-run re-enters the
   healthy rotation, with the readmission visible in the report, the
   tally footer and the cycles-track health counters. *)
let test_degrade_then_readmit () =
  let cfg =
    {
      base with
      Serve.workers = 2;
      requests = 16;
      plan = flip_plan;
      retry_budget = 4;
      health = Some serve_hcfg;
    }
  in
  let reg = Metrics.create () in
  let artifact, g = Lazy.force fixture in
  let r = Serve.run ~metrics:reg cfg artifact ~graph:g in
  let h = Option.get r.Serve.r_health in
  Alcotest.(check bool) "pred plane relapsed" true (h.Serve.h_pred_relapses >= 1);
  Alcotest.(check bool) "pred plane readmitted" true
    (h.Serve.h_pred_readmissions >= 1);
  let observed_readmissions =
    List.fold_left
      (fun acc i ->
        match i.Serve.i_health with
        | Some hs -> acc + hs.Serve.hs_readmissions
        | None -> acc)
      0 r.Serve.r_instances
  in
  Alcotest.(check bool) "an instance re-entered the rotation" true
    (observed_readmissions >= 1);
  let degraded_instance =
    List.exists (fun i -> i.Serve.i_degraded_at <> None) r.Serve.r_instances
  in
  Alcotest.(check bool) "the degrade moment is recorded" true degraded_instance;
  let tally = Serve.tally r in
  Alcotest.(check bool) "tally carries the health header" true
    (Helpers.contains tally "health threshold=");
  Alcotest.(check bool) "tally carries the pred footer" true
    (Helpers.contains tally "health pred-state=");
  let prom = Metrics.to_prometheus r.Serve.r_metrics in
  Alcotest.(check bool) "pred transition counters on the cycles track" true
    (Helpers.contains
       (Helpers.cycles_section prom)
       "htvm_health_pred_transitions_total");
  Alcotest.(check bool) "readmission counter present" true
    (Helpers.contains prom "htvm_health_pred_readmissions_total");
  let json = Trace.Json.to_string (Serve.to_json r) in
  Alcotest.(check bool) "per-instance health in json" true
    (Helpers.contains json "\"readmissions\":")

(* The headline invariance survives the lifecycle: tally and cycles
   track byte-identical across fleet shapes with health + faults +
   boot-degraded instances all enabled. *)
let test_tally_invariant_with_health () =
  let cfg w j =
    {
      base with
      Serve.workers = w;
      jobs = j;
      requests = 14;
      plan = flip_plan;
      retry_budget = 4;
      degraded_instances = [ 0 ];
      health = Some serve_hcfg;
    }
  in
  let artifact, g = Lazy.force fixture in
  let at w j =
    let reg = Metrics.create () in
    let r = Serve.run ~metrics:reg (cfg w j) artifact ~graph:g in
    (Serve.tally r, Helpers.cycles_section (Metrics.to_prometheus r.Serve.r_metrics))
  in
  let reference = at 1 1 in
  List.iter
    (fun (w, j) ->
      let tally, cycles = at w j in
      Alcotest.(check string)
        (Printf.sprintf "tally workers %d jobs %d" w j)
        (fst reference) tally;
      Alcotest.(check string)
        (Printf.sprintf "cycles track workers %d jobs %d" w j)
        (snd reference) cycles)
    [ (1, 4); (2, 1); (4, 4); (5, 2) ]

let test_rejects_bad_health_config () =
  let expect field cfg =
    match serve cfg with
    | _ -> Alcotest.failf "%s accepted" field
    | exception Invalid_argument _ -> ()
  in
  expect "degraded id out of range"
    { base with Serve.workers = 2; degraded_instances = [ 2 ] };
  expect "degraded id negative"
    { base with Serve.workers = 2; degraded_instances = [ -1 ] };
  expect "duplicate degraded ids"
    { base with Serve.workers = 4; degraded_instances = [ 1; 1 ] };
  expect "health + degrade_after"
    {
      base with
      Serve.degrade_after = Some 2;
      health = Some serve_hcfg;
      plan = flip_plan;
    };
  (* probe_cost = 0 is the auto-resolution sentinel at the serve layer,
     so pick a field that has no auto form. *)
  expect "invalid health field"
    {
      base with
      Serve.health = Some { serve_hcfg with Health.probe_fail_prob = 2.0 };
    }

(* Every instance out of rotation: the router fails open (keeps
   serving) and says so in the dedicated counter. *)
let test_fail_open_counter () =
  let r =
    serve { base with Serve.workers = 1; degraded_instances = [ 0 ] }
  in
  Alcotest.(check int) "all requests still served" 12 r.Serve.r_served;
  Alcotest.(check bool) "observed fail-open counted" true (r.Serve.r_fail_open >= 1);
  Alcotest.(check bool) "sched counter exported" true
    (Helpers.contains
       (Metrics.to_prometheus r.Serve.r_metrics)
       "htvm_sched_fail_open_total");
  Alcotest.(check bool) "cycles-track fail-open counter exported" true
    (Helpers.contains
       (Helpers.cycles_section (Metrics.to_prometheus r.Serve.r_metrics))
       "htvm_serve_fail_open_total");
  (* A healthy fleet reports zero. *)
  let healthy = serve { base with Serve.workers = 2 } in
  Alcotest.(check int) "healthy fleet never fails open" 0
    healthy.Serve.r_fail_open

(* --- campaign --------------------------------------------------------- *)

let campaign_cfg rates =
  {
    Campaign.c_serve =
      {
        base with
        Serve.requests = 10;
        retry_budget = 4;
        health = Some serve_hcfg;
      };
    c_rates = rates;
    c_site = "dma_in";
    c_kind = "flip";
    c_fault_seed = 3;
  }

let run_campaign cfg =
  let artifact, g = Lazy.force fixture in
  Campaign.run cfg artifact ~graph:g

let test_campaign_curve () =
  match run_campaign (campaign_cfg [ 0.0; 0.08; 0.4 ]) with
  | Error msg -> Alcotest.failf "campaign failed: %s" msg
  | Ok t ->
      let points = t.Campaign.t_points in
      Alcotest.(check int) "one point per rate" 3 (List.length points);
      let stress pt =
        let r = pt.Campaign.pt_report in
        let h = Option.get r.Serve.r_health in
        r.Serve.r_aborted + h.Serve.h_pred_relapses + h.Serve.h_pred_fail_open
      in
      (match points with
      | [ zero; _; hot ] ->
          Alcotest.(check int) "zero rate is fault-free" 0 (stress zero);
          Alcotest.(check bool) "high rate stresses the fleet" true
            (stress hot > 0)
      | _ -> assert false);
      let tally = Campaign.tally t in
      Alcotest.(check bool) "tally header" true
        (Helpers.contains tally "htvm-campaign-tally v1");
      Alcotest.(check int) "tally has one rate line per point" 3
        (List.length
           (List.filter
              (fun l -> String.length l > 5 && String.sub l 0 5 = "rate ")
              (String.split_on_char '\n' tally)))

let test_campaign_tally_invariant () =
  let with_fleet w j =
    let cfg = campaign_cfg [ 0.0; 0.08; 0.4 ] in
    let cfg =
      { cfg with Campaign.c_serve = { cfg.Campaign.c_serve with Serve.workers = w; jobs = j } }
    in
    match run_campaign cfg with
    | Ok t -> Campaign.tally t
    | Error msg -> Alcotest.failf "campaign failed: %s" msg
  in
  Alcotest.(check string) "w1/j1 = w4/j4" (with_fleet 1 1) (with_fleet 4 4)

let test_campaign_rejections () =
  let expect field cfg =
    match run_campaign cfg with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" field
  in
  expect "empty rates" (campaign_cfg []);
  expect "rate > 1" (campaign_cfg [ 0.5; 1.5 ]);
  expect "negative rate" (campaign_cfg [ -0.1 ]);
  expect "duplicate rates" (campaign_cfg [ 0.1; 0.1 ]);
  expect "bad site" { (campaign_cfg [ 0.1 ]) with Campaign.c_site = "nope" };
  expect "bad kind" { (campaign_cfg [ 0.1 ]) with Campaign.c_kind = "nope" }

(* --- multi-tenant ----------------------------------------------------- *)

let mt_fixture =
  lazy
    (let artifact, g = Lazy.force fixture in
     let models = [ { Serve.m_name = "main"; m_artifact = artifact; m_graph = g } ] in
     let classes =
       [ { Serve.k_name = "c"; k_model = "main"; k_slo = None; k_weight = 1 } ]
     in
     (models, classes))

let mt_base = { Serve.mt_default with Serve.mt_requests = 12; mt_max_batch = 3 }

let test_mt_health_lifecycle () =
  let models, classes = Lazy.force mt_fixture in
  let cfg =
    {
      mt_base with
      Serve.mt_workers = 2;
      mt_degraded_instances = [ 1 ];
      mt_health = Some serve_hcfg;
    }
  in
  match Serve.mt_run cfg ~models ~classes with
  | Error e -> Alcotest.failf "mt_run failed: %s" (Serve.mt_error_to_string e)
  | Ok r ->
      let i1 = List.nth r.Serve.mt_instances 1 in
      let hs = Option.get i1.Serve.mi_health in
      Alcotest.(check bool) "boot-degraded instance readmitted" true
        (hs.Serve.hs_readmissions >= 1);
      Alcotest.(check bool) "probe cycles charged" true (hs.Serve.hs_probe_cycles > 0);
      (* The mt tally never sees the fleet: health on/off is invisible. *)
      let plain =
        match Serve.mt_run mt_base ~models ~classes with
        | Ok r -> Serve.mt_tally r
        | Error e -> Alcotest.failf "mt_run failed: %s" (Serve.mt_error_to_string e)
      in
      Alcotest.(check string) "mt tally untouched by the lifecycle" plain
        (Serve.mt_tally r)

let test_mt_fail_open_and_validation () =
  let models, classes = Lazy.force mt_fixture in
  (match
     Serve.mt_run
       { mt_base with Serve.mt_workers = 1; mt_degraded_instances = [ 0 ] }
       ~models ~classes
   with
  | Error e -> Alcotest.failf "mt_run failed: %s" (Serve.mt_error_to_string e)
  | Ok r ->
      Alcotest.(check bool) "fail-open counted" true (r.Serve.mt_fail_open >= 1);
      Alcotest.(check int) "everything still served" 12 r.Serve.mt_served);
  let expect field cfg =
    match Serve.mt_run cfg ~models ~classes with
    | Error (Serve.Bad_config _) -> ()
    | Error e ->
        Alcotest.failf "%s: wrong error %s" field (Serve.mt_error_to_string e)
    | Ok _ -> Alcotest.failf "%s accepted" field
  in
  expect "id out of range"
    { mt_base with Serve.mt_workers = 2; mt_degraded_instances = [ 2 ] };
  expect "duplicate ids"
    { mt_base with Serve.mt_workers = 4; mt_degraded_instances = [ 0; 0 ] };
  expect "invalid health"
    {
      mt_base with
      Serve.mt_health = Some { serve_hcfg with Health.pass_threshold = 0 };
    }

let suites =
  [ ( "health",
      [ Alcotest.test_case "probation backoff escalation" `Quick
          test_backoff_escalation;
        Alcotest.test_case "lifecycle walkthrough" `Quick
          test_lifecycle_walkthrough;
        Alcotest.test_case "probe failures escalate the window" `Quick
          test_probe_failure_escalates;
        Alcotest.test_case "fault during probation relapses" `Quick
          test_fault_during_probation_relapses;
        Alcotest.test_case "faults while degraded ignored" `Quick
          test_faults_while_degraded_ignored;
        Alcotest.test_case "validate rejections" `Quick test_validate_rejections;
        prop_simulate_determinism;
      ] );
    ( "health:serve",
      [ Alcotest.test_case "degrade then readmit mid-run" `Quick
          test_degrade_then_readmit;
        Alcotest.test_case "tally invariant with health" `Quick
          test_tally_invariant_with_health;
        Alcotest.test_case "rejects bad health config" `Quick
          test_rejects_bad_health_config;
        Alcotest.test_case "fail-open counter" `Quick test_fail_open_counter;
        Alcotest.test_case "mt health lifecycle" `Quick test_mt_health_lifecycle;
        Alcotest.test_case "mt fail-open and validation" `Quick
          test_mt_fail_open_and_validation;
      ] );
    ( "health:campaign",
      [ Alcotest.test_case "curve over rate points" `Quick test_campaign_curve;
        Alcotest.test_case "tally invariant over fleet shape" `Quick
          test_campaign_tally_invariant;
        Alcotest.test_case "rejections" `Quick test_campaign_rejections;
      ] );
  ]
