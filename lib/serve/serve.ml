(* Batched inference serving over a simulated DIANA fleet.

   The runtime is split so its determinism guarantee is structural
   rather than accidental:

   1. Generation + admission are pure functions of the config seed: the
      request stream (payload seeds, arrival cycles) comes from one
      Util.Rng stream, and the per-window ingress cap decides shedding
      from arrivals alone — never from how fast the fleet drains.
   2. Execution is a pure function of the request: each request runs on
      a fresh simulated machine under its own fault session (seed
      derived from plan seed + request id), fanned out over a Util.Pool
      whose map is order-preserving. Outputs, service cycles and fault
      tallies cannot depend on routing, fleet size or host parallelism.
   3. Scheduling is plain arithmetic over the execution records: batch
      assembly, earliest-free healthy routing, per-instance clocks,
      degradation bookkeeping and the trace all happen on the
      submitting domain. Only this layer sees the worker count, and
      only serving metrics (throughput, waits, utilization) flow out of
      it — the functional tally is assembled from layers 1 and 2.

   The health lifecycle (lib/health) keeps that split by running on two
   planes, mirroring the predicted/observed SLO accounting:

   - The *predicted* plane is one logical Health.t advanced along the
     queueing-free batch timeline (window closes, dispatch overheads,
     exact service cycles). It never sees the fleet shape, so the
     health-aware admission cap, the health-shed set, the predicted
     fail-open count, readmission totals and every htvm_health_*
     cycles-track counter stay byte-identical at any workers/jobs and
     may appear in the tally.
   - The *observed* plane is one Health.t per instance, fed by the
     faults of the batches actually routed to it. It decides routing
     eligibility, charges probe cycles to the probed instance, and
     surfaces only through the summary, the per-instance JSON and the
     sched metrics track — like makespan and throughput. *)

module C = Htvm.Compile
module J = Trace.Json

type arrival = Closed | Poisson of { mean_gap : int }

type config = {
  workers : int;
  max_batch : int;
  queue_depth : int;
  requests : int;
  seed : int;
  arrival : arrival;
  window : int;
  dispatch_overhead : int;
  plan : Fault.Plan.t;
  retry_budget : int;
  degrade_after : int option;
  degraded_instances : int list;
  jobs : int;
  slo_sojourn : int option;
  use_plan : bool;
  memoize : bool;
  input_mix : int;
  health : Health.config option;
}

let default =
  {
    workers = 4;
    max_batch = 8;
    queue_depth = 32;
    requests = 64;
    seed = 42;
    arrival = Closed;
    window = 0;
    dispatch_overhead = 1_000;
    plan = Fault.Plan.empty;
    retry_budget = 3;
    degrade_after = None;
    degraded_instances = [];
    jobs = 1;
    slo_sojourn = None;
    use_plan = true;
    memoize = false;
    input_mix = 0;
    health = None;
  }

type request = { r_id : int; r_input_seed : int; r_arrival : int }

type outcome =
  | Served of {
      o_instance : int;
      o_batch : int;
      o_start : int;
      o_finish : int;
      o_service : int;
      o_wait : int;
      o_digest : string;
      o_detected : int;
      o_silent : int;
      o_retries : int;
      o_pred_sojourn : int;
    }
  | Rejected of { o_window : int }
  | Aborted of { o_instance : int; o_batch : int; o_site : string; o_attempts : int }

type percentiles = {
  p_count : int;
  p_min : int;
  p_mean : float;
  p50 : int;
  p95 : int;
  p99 : int;
  p_max : int;
}

let percentiles_of xs =
  match List.sort compare xs with
  | [] -> { p_count = 0; p_min = 0; p_mean = 0.0; p50 = 0; p95 = 0; p99 = 0; p_max = 0 }
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let pick p =
        (* nearest rank in exact integer arithmetic: the smallest rank
           with 100 * rank >= p * n, i.e. ceil(p*n/100) — no float
           rounding at bucket edges (n = 100 must give rank p, not
           p ± 1). *)
        let rank = ((p * n) + 99) / 100 in
        a.(Util.Ints.clamp ~lo:0 ~hi:(n - 1) (rank - 1))
      in
      {
        p_count = n;
        p_min = a.(0);
        p_mean = float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int n;
        p50 = pick 50;
        p95 = pick 95;
        p99 = pick 99;
        p_max = a.(n - 1);
      }

(* Observed-plane lifecycle stats of one instance's Health.t machine. *)
type health_stat = {
  hs_state : Health.state;
  hs_transitions : int;
  hs_readmissions : int;
  hs_relapses : int;
  hs_probes_passed : int;
  hs_probes_failed : int;
  hs_probe_cycles : int;
}

type instance_stat = {
  i_id : int;
  i_batches : int;
  i_served : int;
  i_aborted : int;
  i_busy : int;
  i_utilization : float;
  i_faults : int;
  i_degraded_at : int option;
  i_health : health_stat option;
  i_totals : Sim.Counters.t;
}

(* SLO accounting. Predicted violations compare the queueing-free
   sojourn — dispatch window close + dispatch overhead + in-batch
   service prefix, minus arrival — against the target, so they are a
   pure function of the seed (batch assembly precedes routing) and live
   in the tally. Observed violations compare the scheduled finish and
   legitimately move with the fleet shape. Predicted sojourn is a lower
   bound on observed sojourn, so predicted violations are a subset. *)
type slo = {
  s_target : int;
  s_pred_violations : int;
  s_observed_violations : int;
  s_pred_violation_rate : float;  (* predicted violations / served *)
}

(* Health-lifecycle accounting. The h_pred_* fields come from the
   predicted plane (workers/jobs-invariant, in the tally); h_shed is the
   health-aware admission's shed count (same plane). The observed
   counterparts live in instance_stat.i_health and r_fail_open. *)
type health_summary = {
  h_config : Health.config;  (* resolved: autos filled from the probe *)
  h_pred_state : Health.state;
  h_pred_transitions : int;
  h_pred_readmissions : int;
  h_pred_relapses : int;
  h_pred_probe_cycles : int;
  h_pred_fail_open : int;
  h_shed : int;
}

type report = {
  r_config : config;
  r_window : int;
  r_mean_gap : int;
  r_outcomes : (request * outcome) list;
  r_served : int;
  r_rejected : int;
  r_aborted : int;
  r_shed_rate : float;
  r_service : percentiles;
  r_sojourn : percentiles;
  r_makespan : int;
  r_throughput_rps : float;
  r_instances : instance_stat list;
  r_slo : slo option;
  r_health : health_summary option;
  r_fail_open : int;  (* observed fail-open dispatches (fleet-shaped) *)
  r_memo_hits : int;
  r_memo_misses : int;
  r_metrics : Metrics.snapshot;
}

(* --- generation ------------------------------------------------------- *)

(* One exponential inter-arrival gap. The uniform draw is an integer
   grid point, so the stream is reproducible without trusting float
   rounding across draws. *)
let exp_gap rng ~mean =
  let u = (float_of_int (Util.Rng.int rng 1_000_000) +. 1.0) /. 1_000_001.0 in
  max 0 (int_of_float (-.float_of_int mean *. log u))

let generate cfg ~mean_gap =
  let rng = Util.Rng.create cfg.seed in
  (* Input-mix pool: [input_mix = 0] keeps the historical fully-unique
     stream byte-for-byte; [input_mix = k > 0] folds every per-request
     draw into a pool of k seeds from a derived stream. The fold happens
     after the main draw, so arrivals are identical at any mix. *)
  let pool =
    if cfg.input_mix <= 0 then [||]
    else
      let prng = Util.Rng.create (cfg.seed + 999_983) in
      Array.init cfg.input_mix (fun _ -> Util.Rng.int_in prng 1 1_000_000)
  in
  let clock = ref 0 in
  List.init cfg.requests (fun k ->
      let draw = Util.Rng.int_in rng 1 1_000_000 in
      let input_seed =
        if cfg.input_mix <= 0 then draw else pool.(draw mod cfg.input_mix)
      in
      let arrival =
        match cfg.arrival with
        | Closed -> 0
        | Poisson _ ->
            clock := !clock + exp_gap rng ~mean:mean_gap;
            !clock
      in
      { r_id = k; r_input_seed = input_seed; r_arrival = arrival })

(* --- execution -------------------------------------------------------- *)

let digest_tensor t =
  let b = Buffer.create (16 + (Tensor.numel t * 4)) in
  Buffer.add_string b (Tensor.Dtype.to_string (Tensor.dtype t));
  Buffer.add_char b '|';
  Array.iter
    (fun d ->
      Buffer.add_string b (string_of_int d);
      Buffer.add_char b 'x')
    (Tensor.shape t);
  Buffer.add_char b '|';
  for i = 0 to Tensor.numel t - 1 do
    Buffer.add_string b (string_of_int (Tensor.get_flat t i));
    Buffer.add_char b ','
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Each request owns an independent fault campaign: same rules, a seed
   derived from the plan seed and the request id. This is what divorces
   a request's faults from the instance that happens to serve it. *)
let request_plan plan r_id =
  { plan with Fault.Plan.seed = plan.Fault.Plan.seed + ((r_id + 1) * 1_000_003) }

type exec =
  | Done of {
      e_digest : string;
      e_service : int;
      e_detected : int;
      e_silent : int;
      e_retries : int;
      e_totals : Sim.Counters.t;
    }
  | Abort of { a_site : string; a_attempts : int; a_detected : int; a_silent : int }

let execute cfg artifact ~graph (r : request) =
  let inputs = Models.Zoo.random_input ~seed:r.r_input_seed graph in
  let session =
    if Fault.Plan.is_empty cfg.plan then None
    else Some (Fault.Session.create (request_plan cfg.plan r.r_id))
  in
  let fault_stats () =
    match session with
    | None -> (0, 0, 0)
    | Some s ->
        let st = Fault.Session.stats s in
        (st.Fault.Session.detected, st.Fault.Session.silent, st.Fault.Session.retries)
  in
  match
    C.run ?faults:session ~retry_budget:cfg.retry_budget ~use_plan:cfg.use_plan
      artifact ~inputs
  with
  | out, report ->
      let detected, silent, retries = fault_stats () in
      Done
        {
          e_digest = digest_tensor out;
          e_service = C.full_cycles report;
          e_detected = detected;
          e_silent = silent;
          e_retries = retries;
          e_totals = report.Sim.Machine.totals;
        }
  | exception Fault.Session.Unrecovered { site; attempts } ->
      let detected, silent, _ = fault_stats () in
      Abort { a_site = site; a_attempts = attempts; a_detected = detected; a_silent = silent }

(* --- scheduling ------------------------------------------------------- *)

type instance = {
  id : int;
  mutable free_at : int;
  mutable busy : int;
  mutable served : int;
  mutable aborted : int;
  mutable batches : int;
  mutable faults : int;
  mutable degraded_at : int option;
  mutable probe_cyc : int;  (* observed-plane probe cycles charged *)
  hm : Health.t option;  (* observed-plane machine (health mode only) *)
  totals : Sim.Counters.t;
}

let healthy_at inst t =
  match inst.hm with
  | Some m -> Health.eligible m
  | None -> (
      match inst.degraded_at with None -> true | Some d -> t < d)

(* Earliest-free eligible instance, lowest id on ties. Falls open to the
   whole fleet when every instance is out of the rotation: a fully
   degraded fleet keeps serving rather than shedding everything. The
   second component reports that fail-open, for the dedicated counter. *)
let route instances t =
  let all = Array.to_list instances in
  let eligible = List.filter (fun i -> healthy_at i t) all in
  let fail_open = eligible = [] in
  let pool = if fail_open then all else eligible in
  ( List.fold_left
      (fun best i -> if i.free_at < best.free_at then i else best)
      (List.hd pool) (List.tl pool),
    fail_open )

(* Fill a health config's auto fields from the probe request's service
   time: probation two probe-services, probes every quarter service
   costing a tenth, escalation capped at 8 probation windows. A pure
   function of (config, artifact, seed), like the window auto. *)
let resolve_health hc ~probe_cycles =
  let probation =
    if hc.Health.probation_window > 0 then hc.Health.probation_window
    else 2 * probe_cycles
  in
  let resolved =
    {
      hc with
      Health.probation_window = probation;
      probe_interval =
        (if hc.Health.probe_interval >= 0 then hc.Health.probe_interval
         else max 1 (probe_cycles / 4));
      probe_cost =
        (if hc.Health.probe_cost > 0 then hc.Health.probe_cost
         else max 1 (probe_cycles / 10));
      backoff_cap =
        (if hc.Health.backoff_cap > 0 then hc.Health.backoff_cap
         else 8 * probation);
    }
  in
  match Health.validate resolved with
  | Ok () -> Ok resolved
  | Error msg -> Error msg

let health_stat_of m =
  {
    hs_state = Health.state m;
    hs_transitions = List.length (Health.transitions m);
    hs_readmissions = Health.readmissions m;
    hs_relapses = Health.relapses m;
    hs_probes_passed = Health.probes_passed m;
    hs_probes_failed = Health.probes_failed m;
    hs_probe_cycles = Health.probe_cycles m;
  }

(* Split [xs] into consecutive chunks of at most [n]. *)
let rec chunk n xs =
  if xs = [] then []
  else
    let rec take k acc rest =
      match rest with
      | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
      | _ -> (List.rev acc, rest)
    in
    let head, rest = take n [] xs in
    head :: chunk n rest

(* Typed errors, shared between the single-tenant and multi-tenant
   surfaces: the mt path returns them from [mt_run]; the single-tenant
   path diagnoses config violations through [validate] (callers like
   [htvmc serve] print the message and exit nonzero) while [run] itself
   keeps its raising contract for programmatic misuse. *)
type mt_error =
  | Unknown_model of { class_name : string; model : string }
  | Unknown_class of { class_name : string; context : string }
  | Bad_trace of { line : int; reason : string }
  | Bad_config of string

let mt_error_to_string = function
  | Unknown_model { class_name; model } ->
      Printf.sprintf "class %S names model %S, which is not in the registry"
        class_name model
  | Unknown_class { class_name; context } ->
      Printf.sprintf "%s references class %S, which is not configured" context
        class_name
  | Bad_trace { line; reason } ->
      Printf.sprintf "arrival trace line %d: %s" line reason
  | Bad_config msg -> msg

(* Single-tenant config validation. Raises [Invalid_argument] — [run]'s
   historical contract — with [validate] below wrapping the same checks
   into a typed result. *)
let check_config cfg =
  if cfg.workers < 1 then invalid_arg "Serve.run: workers must be >= 1";
  if cfg.max_batch < 1 then invalid_arg "Serve.run: max_batch must be >= 1";
  if cfg.queue_depth < 1 then invalid_arg "Serve.run: queue_depth must be >= 1";
  if cfg.requests < 0 then invalid_arg "Serve.run: requests must be >= 0";
  (match cfg.slo_sojourn with
  | Some t when t < 1 -> invalid_arg "Serve.run: slo_sojourn must be >= 1"
  | _ -> ());
  if cfg.input_mix < 0 then invalid_arg "Serve.run: input_mix must be >= 0";
  (* Degraded ids must name real instances, once each — out-of-range or
     duplicate ids were silently ignored before and always indicate a
     config bug (a typo'd fleet size, a doubled flag). *)
  (match
     List.find_opt
       (fun id -> id < 0 || id >= cfg.workers)
       cfg.degraded_instances
   with
  | Some id ->
      invalid_arg
        (Printf.sprintf
           "Serve.run: degraded instance id %d out of range [0, %d)" id
           cfg.workers)
  | None -> ());
  if
    List.length (List.sort_uniq compare cfg.degraded_instances)
    <> List.length cfg.degraded_instances
  then invalid_arg "Serve.run: degraded instance ids must be distinct";
  (* The health lifecycle replaces the one-way degrade_after flag; the
     two accounting schemes would fight over instance eligibility. *)
  if cfg.health <> None && cfg.degrade_after <> None then
    invalid_arg "Serve.run: health and degrade_after are mutually exclusive";
  (* Memoization reuses one execution across identical inputs, which is
     only sound when executions are input-pure — per-request fault
     sessions make them input-impure by design. *)
  if cfg.memoize && not (Fault.Plan.is_empty cfg.plan) then
    invalid_arg "Serve.run: memoize requires an empty fault plan"

let validate cfg =
  match check_config cfg with
  | () -> Ok ()
  | exception Invalid_argument msg -> Error (Bad_config msg)

let run ?trace ?metrics cfg artifact ~graph =
  check_config cfg;
  (* The run always records into a registry — the caller's (so a serve
     dump can carry the compile-side metrics too) or a private one — and
     the report carries its snapshot. Registration is strict, so a
     caller-supplied registry must not have seen a serve run before. *)
  let reg = match metrics with Some r -> r | None -> Metrics.create () in
  let m_requests =
    Metrics.counter reg ~help:"Requests generated from the seed."
      "htvm_serve_requests_total"
  in
  let m_admitted =
    Metrics.counter reg ~help:"Requests admitted past the per-window ingress cap."
      "htvm_serve_admitted_total"
  in
  let m_shed =
    Metrics.counter reg ~help:"Requests shed at admission." "htvm_serve_shed_total"
  in
  let m_served =
    Metrics.counter reg ~help:"Requests served to completion."
      "htvm_serve_served_total"
  in
  let m_aborted =
    Metrics.counter reg ~help:"Requests aborted after exhausting the retry budget."
      "htvm_serve_aborted_total"
  in
  let m_faults_detected =
    Metrics.counter reg ~help:"Detected faults across all request executions."
      "htvm_serve_faults_detected_total"
  in
  let m_faults_silent =
    Metrics.counter reg ~help:"Silent corruptions across all request executions."
      "htvm_serve_faults_silent_total"
  in
  let m_retries =
    Metrics.counter reg ~help:"Retries across all request executions."
      "htvm_serve_retries_total"
  in
  let m_memo_hits =
    Metrics.counter reg
      ~help:"Admitted requests whose output was reused from an identical input."
      "htvm_serve_memo_hits_total"
  in
  let m_memo_misses =
    Metrics.counter reg
      ~help:"Distinct inputs actually executed under memoization."
      "htvm_serve_memo_misses_total"
  in
  let cycle_buckets =
    [ 1_000; 3_000; 10_000; 30_000; 100_000; 300_000; 1_000_000; 3_000_000;
      10_000_000 ]
  in
  let m_service =
    Metrics.histogram reg ~buckets:cycle_buckets
      ~help:"Per-request service cycles on a dedicated machine."
      "htvm_serve_service_cycles"
  in
  let m_pred_sojourn =
    Metrics.histogram reg ~buckets:cycle_buckets
      ~help:"Predicted (queueing-free) sojourn cycles of served requests."
      "htvm_serve_pred_sojourn_cycles"
  in
  let m_slo_pred =
    Metrics.counter reg
      ~help:"Served requests whose predicted sojourn exceeded the SLO target."
      "htvm_serve_slo_pred_violations_total"
  in
  let m_window =
    Metrics.series reg
      ~columns:
        [ "arrivals"; "admitted"; "shed"; "slo_pred_violations";
          "slo_pred_violation_rate" ]
      ~help:"Per dispatch window: admission and predicted-SLO accounting."
      "htvm_serve_window"
  in
  let m_sim =
    List.map
      (fun (name, _) ->
        ( name,
          Metrics.counter reg
            ~help:("Simulator counter " ^ name ^ " summed over served requests.")
            ("htvm_sim_" ^ name ^ "_total") ))
      (Sim.Counters.fields (Sim.Counters.create ()))
  in
  let m_slo_observed =
    Metrics.counter reg ~track:Metrics.Sched
      ~help:"Served requests whose observed sojourn exceeded the SLO target."
      "htvm_serve_slo_observed_violations_total"
  in
  let m_sched_window =
    Metrics.series reg ~track:Metrics.Sched
      ~columns:[ "in_flight"; "free_max"; "served_cum"; "throughput_rps" ]
      ~help:"Fleet state at each dispatch-window close."
      "htvm_sched_window"
  in
  (* Fail-open accounting is split like the SLO counters: the dedicated
     htvm_serve_fail_open_total counts predicted-plane fail-opens
     (cycles track, worker-invariant, 0 without health); the observed
     fleet-shaped count lands on the sched track. *)
  let m_fail_open_pred =
    Metrics.counter reg
      ~help:
        "Batches predicted to dispatch with no healthy capacity \
         (fail-open), on the predicted health plane."
      "htvm_serve_fail_open_total"
  in
  let m_health_shed =
    Metrics.counter reg
      ~help:
        "Requests shed by health-aware admission while the predicted \
         plane was out of the rotation."
      "htvm_serve_health_shed_total"
  in
  let m_fail_open_observed =
    Metrics.counter reg ~track:Metrics.Sched
      ~help:
        "Scheduled batches dispatched with every instance out of the \
         healthy rotation (fail-open)."
      "htvm_sched_fail_open_total"
  in
  let health_pair_labels (f, t) =
    [ ("from", Health.state_label f); ("to", Health.state_label t) ]
  in
  let m_health_pred_transitions =
    match cfg.health with
    | None -> []
    | Some _ ->
        List.map
          (fun pair ->
            ( pair,
              Metrics.counter reg ~labels:(health_pair_labels pair)
                ~help:"Predicted-plane health transitions by (from, to)."
                "htvm_health_pred_transitions_total" ))
          Health.legal_pairs
  in
  let m_health_pred_counter name help =
    match cfg.health with
    | None -> None
    | Some _ -> Some (Metrics.counter reg ~help name)
  in
  let m_health_pred_readmissions =
    m_health_pred_counter "htvm_health_pred_readmissions_total"
      "Predicted-plane readmissions to the healthy rotation."
  in
  let m_health_pred_relapses =
    m_health_pred_counter "htvm_health_pred_relapses_total"
      "Predicted-plane entries into the degraded state."
  in
  let m_health_pred_probe_cycles =
    m_health_pred_counter "htvm_health_pred_probe_cycles_total"
      "Predicted-plane cycles spent on health-check probes."
  in
  let m_health_observed_transitions =
    match cfg.health with
    | None -> []
    | Some _ ->
        List.map
          (fun pair ->
            ( pair,
              Metrics.counter reg ~track:Metrics.Sched
                ~labels:(health_pair_labels pair)
                ~help:
                  "Observed per-instance health transitions by (from, \
                   to), summed over the fleet."
                "htvm_health_observed_transitions_total" ))
          Health.legal_pairs
  in
  (* Auto window / gap probe: one fault-free execution of a seed-derived
     payload. A pure function of (artifact, seed) — independent of the
     fleet size, so auto values never leak worker count into the
     arrival process. *)
  let probe =
    lazy
      (let inputs = Models.Zoo.random_input ~seed:cfg.seed graph in
       let _, rep = C.run artifact ~inputs in
       max 1 (C.full_cycles rep))
  in
  let mean_gap =
    match cfg.arrival with
    | Closed -> 0
    | Poisson { mean_gap } ->
        if mean_gap > 0 then mean_gap else max 1 (Lazy.force probe / 2)
  in
  let window =
    match cfg.arrival with
    | Closed -> 0
    | Poisson _ -> if cfg.window > 0 then cfg.window else Lazy.force probe
  in
  let health_cfg =
    match cfg.health with
    | None -> None
    | Some hc -> (
        match resolve_health hc ~probe_cycles:(Lazy.force probe) with
        | Ok resolved -> Some resolved
        | Error msg -> invalid_arg ("Serve.run: " ^ msg))
  in
  let requests = generate cfg ~mean_gap in
  (* Admission: per dispatch window, the first [queue_depth] arrivals
     are buffered, the rest shed. Requests are already in arrival order
     (ids break ties), so one left-to-right scan decides. *)
  let outcomes = Array.make cfg.requests None in
  let admitted =
    match cfg.arrival with
    | Closed -> List.map (fun r -> (0, r)) requests
    | Poisson _ ->
        let in_window = Hashtbl.create 16 in
        List.filter_map
          (fun r ->
            let w = r.r_arrival / window in
            let n = Option.value ~default:0 (Hashtbl.find_opt in_window w) in
            if n >= cfg.queue_depth then begin
              outcomes.(r.r_id) <- Some (Rejected { o_window = w });
              Trace.interval trace ~track:"serve" ~cat:"serve" ~ts:r.r_arrival
                ~dur:0
                ~args:[ ("request", J.Int r.r_id); ("window", J.Int w) ]
                "shed";
              (* Re-sample the occupancy at the shed point so the counter
                 track shows the plateau pressing against the cap. *)
              Trace.counter trace ~track:"queue" ~cat:"serve" ~ts:r.r_arrival
                ~value:n "queue_depth";
              None
            end
            else begin
              Hashtbl.replace in_window w (n + 1);
              Trace.counter trace ~track:"queue" ~cat:"serve" ~ts:r.r_arrival
                ~value:(n + 1) "queue_depth";
              Some (w, r)
            end)
          requests
  in
  (* Execute every admitted request on the pool. Order-preserving map +
     per-request fault sessions keep this identical at any [jobs]. *)
  let memo_hits = ref 0 and memo_misses = ref 0 in
  let execs =
    if not cfg.memoize then
      Util.Pool.with_pool ~jobs:cfg.jobs (fun pool ->
          Util.Pool.map pool
            (fun (_, r) -> execute cfg artifact ~graph r)
            admitted)
    else begin
      (* Memoization: dedupe admitted requests by input digest before the
         fan-out, execute one representative per distinct input, share its
         result. Executions are input-pure here (empty fault plan is
         enforced above), so the tally is byte-identical with and without
         memoization — only hit/miss telemetry and wall time move. A key
         is a pure function of the input seed, so it is computed once per
         distinct seed. *)
      let digests = Hashtbl.create 16 in
      let input_digest r =
        match Hashtbl.find_opt digests r.r_input_seed with
        | Some key -> key
        | None ->
            let inputs = Models.Zoo.random_input ~seed:r.r_input_seed graph in
            let key =
              String.concat "+"
                (List.map (fun (n, t) -> n ^ ":" ^ digest_tensor t) inputs)
            in
            Hashtbl.add digests r.r_input_seed key;
            key
      in
      let keys = List.map (fun (_, r) -> input_digest r) admitted in
      let seen = Hashtbl.create 16 in
      let reps =
        List.filter_map
          (fun (item, key) ->
            if Hashtbl.mem seen key then begin
              incr memo_hits;
              None
            end
            else begin
              Hashtbl.add seen key ();
              incr memo_misses;
              Some (key, item)
            end)
          (List.combine admitted keys)
      in
      let rep_execs =
        Util.Pool.with_pool ~jobs:cfg.jobs (fun pool ->
            Util.Pool.map pool
              (fun (_, (_, r)) -> execute cfg artifact ~graph r)
              reps)
      in
      let table = Hashtbl.create 16 in
      List.iter2 (fun (key, _) e -> Hashtbl.replace table key e) reps rep_execs;
      List.map (fun key -> Hashtbl.find table key) keys
    end
  in
  let work = List.combine admitted execs in
  (* Batch assembly: chunk each window's admitted requests. *)
  let windows =
    let tbl = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun (((w, _), _) as item) ->
        if not (Hashtbl.mem tbl w) then begin
          Hashtbl.add tbl w (ref []);
          order := w :: !order
        end;
        let cell = Hashtbl.find tbl w in
        cell := item :: !cell)
      work;
    List.rev_map (fun w -> (w, List.rev !(Hashtbl.find tbl w))) !order |> List.rev
  in
  (* Predicted (queueing-free) sojourn + the predicted health plane, one
     forward pass in window order. Every batch is predicted to dispatch
     the moment its window closes onto an idle machine; batch assembly
     happens before routing, so this pass never sees the fleet shape —
     pred_sojourn is the deterministic lower bound the SLO tally counts
     against, and it never exceeds the scheduled sojourn (the real start
     is the same expression with instance availability maxed in).

     The health plane rides the same pass: one logical machine advanced
     to each window open (admission consults it: the effective ingress
     cap halves while it is out of the rotation) and to each predicted
     dispatch (an ineligible dispatch is a predicted fail-open), then
     fed the batch's fault count at the predicted finish. In closed mode
     there are no windows, so the machine advances along the serialized
     batch cursor instead; pred_sojourn keeps its historical zero-based
     timing either way. *)
  let pred_health =
    Option.map
      (fun hc ->
        Health.create
          ~degraded_at_start:(cfg.degraded_instances <> [])
          hc ~instance:(-1))
      health_cfg
  in
  let pred_fail_open = ref 0 and health_shed = ref 0 in
  let pred_sojourn = Array.make cfg.requests 0 in
  let pclock = ref 0 in
  let process_window (w, items) =
    let items =
      match (pred_health, cfg.arrival) with
      | Some pm, Poisson _ ->
          ignore (Health.advance pm ~now:(w * window));
          if Health.eligible pm then items
          else begin
            let cap = max 1 (cfg.queue_depth / 2) in
            let rec split k acc = function
              | x :: rest when k > 0 -> split (k - 1) (x :: acc) rest
              | rest -> (List.rev acc, rest)
            in
            let kept, dropped = split cap [] items in
            List.iter
              (fun ((_, r), _) ->
                incr health_shed;
                outcomes.(r.r_id) <- Some (Rejected { o_window = w });
                Trace.interval trace ~track:"serve" ~cat:"serve"
                  ~ts:r.r_arrival ~dur:0
                  ~args:[ ("request", J.Int r.r_id); ("window", J.Int w) ]
                  "health-shed")
              dropped;
            kept
          end
      | _ -> items
    in
    let wbatches = chunk cfg.max_batch items in
    List.iter
      (fun b ->
        let dispatch_t =
          match cfg.arrival with Closed -> 0 | Poisson _ -> (w + 1) * window
        in
        let pdispatch =
          match cfg.arrival with Closed -> !pclock | Poisson _ -> dispatch_t
        in
        (match pred_health with
        | Some pm ->
            ignore (Health.advance pm ~now:pdispatch);
            if not (Health.eligible pm) then incr pred_fail_open
        | None -> ());
        let cursor = ref (dispatch_t + cfg.dispatch_overhead) in
        let pcursor = ref (pdispatch + cfg.dispatch_overhead) in
        let faults = ref 0 in
        List.iter
          (fun ((_, r), exec) ->
            match exec with
            | Done e ->
                cursor := !cursor + e.e_service;
                pcursor := !pcursor + e.e_service;
                pred_sojourn.(r.r_id) <- !cursor - r.r_arrival;
                faults := !faults + e.e_detected + e.e_silent
            | Abort a -> faults := !faults + a.a_detected + a.a_silent)
          b;
        (match pred_health with
        | Some pm -> Health.observe_faults pm ~now:!pcursor !faults
        | None -> ());
        pclock := !pcursor)
      wbatches;
    List.map (fun b -> (w, b)) wbatches
  in
  let batches = List.concat_map process_window windows in
  (* Health shedding may have dropped executions from the stream; only
     the work that survived to batch assembly counts downstream. *)
  let kept_work = List.concat_map snd batches in
  let instances =
    Array.init cfg.workers (fun id ->
        let boot_degraded = List.mem id cfg.degraded_instances in
        {
          id;
          free_at = 0;
          busy = 0;
          served = 0;
          aborted = 0;
          batches = 0;
          faults = 0;
          degraded_at =
            (* with health, filled post-run from the machine's log *)
            (if boot_degraded && health_cfg = None then Some 0 else None);
          probe_cyc = 0;
          hm =
            Option.map
              (fun hc ->
                Health.create ~degraded_at_start:boot_degraded hc ~instance:id)
              health_cfg;
          totals = Sim.Counters.create ();
        })
  in
  let freq_hz =
    float_of_int artifact.C.cfg.C.platform.Arch.Platform.freq_mhz *. 1.0e6
  in
  (* Sched-track window sampling: fleet state when a dispatch window
     closes (batches arrive in window order, so a window change means
     the previous one is fully scheduled). *)
  let served_running = ref 0 in
  let open_window = ref None in
  let sample_sched w =
    let free_max = Array.fold_left (fun acc i -> max acc i.free_at) 0 instances in
    let ts =
      match cfg.arrival with Closed -> free_max | Poisson _ -> (w + 1) * window
    in
    let in_flight =
      Array.fold_left (fun acc i -> acc + if i.free_at > ts then 1 else 0) 0 instances
    in
    let throughput =
      if free_max = 0 then 0.0
      else float_of_int !served_running /. (float_of_int free_max /. freq_hz)
    in
    Metrics.sample m_sched_window ~ts
      [ float_of_int in_flight; float_of_int free_max;
        float_of_int !served_running; throughput ]
  in
  let observed_fail_open = ref 0 in
  (* Process every instance's pending health events (cooldown expiry,
     probes — all scheduled at or before [now], so they never delay a
     batch start) and charge the probe cycles to the probed instance. *)
  let advance_machines now =
    Array.iter
      (fun i ->
        match i.hm with
        | None -> ()
        | Some m ->
            let pc = Health.advance m ~now in
            if pc > 0 then begin
              i.busy <- i.busy + pc;
              i.probe_cyc <- i.probe_cyc + pc
            end)
      instances
  in
  List.iteri
    (fun batch_idx (w, items) ->
      (match !open_window with
      | Some prev when prev <> w -> sample_sched prev
      | _ -> ());
      open_window := Some w;
      let dispatch_t =
        match cfg.arrival with
        | Closed ->
            (* backlog model: the router hands out the next batch as soon
               as any instance frees *)
            Array.fold_left (fun acc i -> min acc i.free_at) max_int instances
        | Poisson _ -> (w + 1) * window
      in
      advance_machines dispatch_t;
      let inst, fail_open = route instances dispatch_t in
      if fail_open then incr observed_fail_open;
      let start = max dispatch_t inst.free_at in
      let cursor = ref (start + cfg.dispatch_overhead) in
      let batch_faults = ref 0 in
      List.iter
        (fun ((_, r), exec) ->
          match exec with
          | Done e ->
              outcomes.(r.r_id) <-
                Some
                  (Served
                     {
                       o_instance = inst.id;
                       o_batch = batch_idx;
                       o_start = !cursor;
                       o_finish = !cursor + e.e_service;
                       o_service = e.e_service;
                       o_wait = !cursor - r.r_arrival;
                       o_digest = e.e_digest;
                       o_detected = e.e_detected;
                       o_silent = e.e_silent;
                       o_retries = e.e_retries;
                       o_pred_sojourn = pred_sojourn.(r.r_id);
                     });
              cursor := !cursor + e.e_service;
              served_running := !served_running + 1;
              inst.served <- inst.served + 1;
              inst.faults <- inst.faults + e.e_detected + e.e_silent;
              batch_faults := !batch_faults + e.e_detected + e.e_silent;
              Sim.Counters.add inst.totals e.e_totals
          | Abort a ->
              outcomes.(r.r_id) <-
                Some
                  (Aborted
                     {
                       o_instance = inst.id;
                       o_batch = batch_idx;
                       o_site = a.a_site;
                       o_attempts = a.a_attempts;
                     });
              inst.aborted <- inst.aborted + 1;
              inst.faults <- inst.faults + a.a_detected + a.a_silent;
              batch_faults := !batch_faults + a.a_detected + a.a_silent)
        items;
      let finish = !cursor in
      Trace.interval trace
        ~track:(Printf.sprintf "instance %d" inst.id)
        ~cat:"serve" ~ts:start ~dur:(finish - start)
        ~args:
          [
            ("batch", J.Int batch_idx);
            ("window", J.Int w);
            ("requests", J.Int (List.length items));
          ]
        (Printf.sprintf "batch %d (%d req)" batch_idx (List.length items));
      inst.free_at <- finish;
      inst.busy <- inst.busy + (finish - start);
      inst.batches <- inst.batches + 1;
      (match inst.hm with
      | Some m -> Health.observe_faults m ~now:finish !batch_faults
      | None -> (
          match (cfg.degrade_after, inst.degraded_at) with
          | Some threshold, None when inst.faults >= threshold ->
              inst.degraded_at <- Some finish;
              Trace.interval trace
                ~track:(Printf.sprintf "instance %d" inst.id)
                ~cat:"serve" ~ts:finish ~dur:0
                ~args:[ ("faults", J.Int inst.faults) ]
                "degraded"
          | _ -> ())))
    batches;
  (match !open_window with Some w -> sample_sched w | None -> ());
  (* Drain the observed plane to the end of the run: probes scheduled
     before the last completion still land, then each machine's log
     yields the instance's first-degradation cycle (the JSON/summary
     field the one-way flag used to fill) and the trace events. *)
  (match health_cfg with
  | None -> ()
  | Some _ ->
      let fleet_end =
        Array.fold_left (fun acc i -> max acc i.free_at) 0 instances
      in
      advance_machines fleet_end;
      Array.iter
        (fun i ->
          match i.hm with
          | None -> ()
          | Some m ->
              i.degraded_at <-
                List.find_opt
                  (fun tr -> tr.Health.tr_to = Health.Degraded)
                  (Health.transitions m)
                |> Option.map (fun tr -> tr.Health.tr_at);
              List.iter
                (fun tr ->
                  Trace.interval trace
                    ~track:(Printf.sprintf "instance %d" i.id)
                    ~cat:"health" ~ts:tr.Health.tr_at ~dur:0
                    ~args:
                      [
                        ("from", J.Str (Health.state_label tr.Health.tr_from));
                        ("to", J.Str (Health.state_label tr.Health.tr_to));
                        ("cause", J.Str (Health.cause_label tr.Health.tr_cause));
                      ]
                    (Printf.sprintf "health %s"
                       (Health.state_label tr.Health.tr_to)))
                (Health.transitions m))
        instances);
  (* --- aggregation --- *)
  let outcomes =
    List.map
      (fun r ->
        match outcomes.(r.r_id) with
        | Some o -> (r, o)
        | None -> assert false (* every request is admitted, shed or aborted *))
      requests
  in
  let service_list =
    List.filter_map
      (function _, Served { o_service; _ } -> Some o_service | _ -> None)
      outcomes
  in
  let sojourn_list =
    List.filter_map
      (function
        | r, Served { o_finish; _ } -> Some (o_finish - r.r_arrival) | _ -> None)
      outcomes
  in
  let served = List.length service_list in
  let rejected =
    List.length (List.filter (function _, Rejected _ -> true | _ -> false) outcomes)
  in
  let aborted =
    List.length (List.filter (function _, Aborted _ -> true | _ -> false) outcomes)
  in
  let makespan = Array.fold_left (fun acc i -> max acc i.free_at) 0 instances in
  let throughput =
    if makespan = 0 then 0.0
    else float_of_int served /. (float_of_int makespan /. freq_hz)
  in
  (* --- metrics + SLO accounting (cycles track first, then sched) --- *)
  let violates p = match cfg.slo_sojourn with Some t -> p > t | None -> false in
  Metrics.inc m_requests cfg.requests;
  Metrics.inc m_admitted (cfg.requests - rejected);
  Metrics.inc m_shed rejected;
  Metrics.inc m_served served;
  Metrics.inc m_aborted aborted;
  List.iter (Metrics.observe m_service) service_list;
  List.iter
    (fun (_, o) ->
      match o with
      | Served s -> Metrics.observe m_pred_sojourn s.o_pred_sojourn
      | _ -> ())
    outcomes;
  let det, sil, ret =
    List.fold_left
      (fun (d, s, t) (_, e) ->
        match e with
        | Done e -> (d + e.e_detected, s + e.e_silent, t + e.e_retries)
        | Abort a -> (d + a.a_detected, s + a.a_silent, t + max 0 (a.a_attempts - 1)))
      (0, 0, 0) kept_work
  in
  Metrics.inc m_faults_detected det;
  Metrics.inc m_faults_silent sil;
  Metrics.inc m_retries ret;
  Metrics.inc m_memo_hits !memo_hits;
  Metrics.inc m_memo_misses !memo_misses;
  let sim_totals = Sim.Counters.create () in
  Array.iter (fun i -> Sim.Counters.add sim_totals i.totals) instances;
  List.iter2
    (fun (_, c) (_, v) -> Metrics.inc c v)
    m_sim
    (Sim.Counters.fields sim_totals);
  (* Per-window admission + predicted-SLO series. Built from outcomes
     alone, so sampling after scheduling changes nothing: timestamps are
     explicit and the data never saw the fleet. *)
  let win_of r =
    match cfg.arrival with Closed -> 0 | Poisson _ -> r.r_arrival / window
  in
  let win_ids = ref [] in
  let win_tbl = Hashtbl.create 16 in
  List.iter
    (fun (r, o) ->
      let w = win_of r in
      let cell =
        match Hashtbl.find_opt win_tbl w with
        | Some c -> c
        | None ->
            let c = ref (0, 0, 0, 0, 0) in
            Hashtbl.add win_tbl w c;
            win_ids := w :: !win_ids;
            c
      in
      let arr, adm, shed, srv, viol = !cell in
      let adm, shed = match o with Rejected _ -> (adm, shed + 1) | _ -> (adm + 1, shed) in
      let srv, viol =
        match o with
        | Served s -> (srv + 1, if violates s.o_pred_sojourn then viol + 1 else viol)
        | _ -> (srv, viol)
      in
      cell := (arr + 1, adm, shed, srv, viol))
    outcomes;
  let cum_srv = ref 0 and cum_viol = ref 0 in
  List.iter
    (fun w ->
      let arr, adm, shed, srv, viol = !(Hashtbl.find win_tbl w) in
      cum_srv := !cum_srv + srv;
      cum_viol := !cum_viol + viol;
      let rate =
        if !cum_srv = 0 then 0.0
        else float_of_int !cum_viol /. float_of_int !cum_srv
      in
      let ts = match cfg.arrival with Closed -> 0 | Poisson _ -> (w + 1) * window in
      Metrics.sample m_window ~ts
        [ float_of_int arr; float_of_int adm; float_of_int shed;
          float_of_int viol; rate ])
    (List.rev !win_ids);
  let pred_violations = !cum_viol in
  let observed_violations =
    match cfg.slo_sojourn with
    | None -> 0
    | Some t ->
        List.length
          (List.filter
             (function
               | r, Served { o_finish; _ } -> o_finish - r.r_arrival > t
               | _ -> false)
             outcomes)
  in
  Metrics.inc m_slo_pred pred_violations;
  Metrics.inc m_fail_open_pred !pred_fail_open;
  Metrics.inc m_health_shed !health_shed;
  (match pred_health with
  | None -> ()
  | Some pm ->
      List.iter2
        (fun (_, c) (_, n) -> Metrics.inc c n)
        m_health_pred_transitions
        (Health.transition_counts pm);
      let inc_opt m v = Option.iter (fun c -> Metrics.inc c v) m in
      inc_opt m_health_pred_readmissions (Health.readmissions pm);
      inc_opt m_health_pred_relapses (Health.relapses pm);
      inc_opt m_health_pred_probe_cycles (Health.probe_cycles pm));
  Metrics.inc m_slo_observed observed_violations;
  Metrics.inc m_fail_open_observed !observed_fail_open;
  List.iter
    (fun (pair, c) ->
      let n =
        Array.fold_left
          (fun acc i ->
            match i.hm with
            | None -> acc
            | Some m -> acc + List.assoc pair (Health.transition_counts m))
          0 instances
      in
      Metrics.inc c n)
    m_health_observed_transitions;
  let slo =
    match cfg.slo_sojourn with
    | None -> None
    | Some target ->
        Some
          {
            s_target = target;
            s_pred_violations = pred_violations;
            s_observed_violations = observed_violations;
            s_pred_violation_rate =
              (if served = 0 then 0.0
               else float_of_int pred_violations /. float_of_int served);
          }
  in
  Array.iter
    (fun i ->
      let labels = [ ("instance", string_of_int i.id) ] in
      let g name help = Metrics.gauge reg ~track:Metrics.Sched ~labels ~help name in
      Metrics.set_int
        (g "htvm_sched_instance_busy_cycles" "Busy cycles per instance.")
        i.busy;
      Metrics.set_int
        (g "htvm_sched_instance_served" "Requests served per instance.")
        i.served;
      Metrics.set_int
        (g "htvm_sched_instance_batches" "Batches dispatched per instance.")
        i.batches;
      Metrics.set_int
        (g "htvm_sched_instance_degraded"
           "1 when the instance left the healthy rotation.")
        (match i.degraded_at with Some _ -> 1 | None -> 0);
      match i.hm with
      | None -> ()
      | Some m ->
          Metrics.set_int
            (g "htvm_sched_instance_probe_cycles"
               "Cycles the instance spent on health probes.")
            i.probe_cyc;
          Metrics.set_int
            (g "htvm_sched_instance_readmissions"
               "Times the instance rejoined the healthy rotation.")
            (Health.readmissions m))
    instances;
  Metrics.set_int
    (Metrics.gauge reg ~track:Metrics.Sched ~help:"End-to-end makespan cycles."
       "htvm_sched_makespan_cycles")
    makespan;
  Metrics.set
    (Metrics.gauge reg ~track:Metrics.Sched
       ~help:"Served requests per second of simulated time."
       "htvm_sched_throughput_rps")
    throughput;
  let health_sum =
    match (pred_health, health_cfg) with
    | Some pm, Some hc ->
        Some
          {
            h_config = hc;
            h_pred_state = Health.state pm;
            h_pred_transitions = List.length (Health.transitions pm);
            h_pred_readmissions = Health.readmissions pm;
            h_pred_relapses = Health.relapses pm;
            h_pred_probe_cycles = Health.probe_cycles pm;
            h_pred_fail_open = !pred_fail_open;
            h_shed = !health_shed;
          }
    | _ -> None
  in
  {
    r_config = cfg;
    r_window = window;
    r_mean_gap = mean_gap;
    r_outcomes = outcomes;
    r_served = served;
    r_rejected = rejected;
    r_aborted = aborted;
    r_shed_rate =
      (if cfg.requests = 0 then 0.0
       else float_of_int rejected /. float_of_int cfg.requests);
    r_service = percentiles_of service_list;
    r_sojourn = percentiles_of sojourn_list;
    r_makespan = makespan;
    r_throughput_rps = throughput;
    r_instances =
      Array.to_list
        (Array.map
           (fun i ->
             {
               i_id = i.id;
               i_batches = i.batches;
               i_served = i.served;
               i_aborted = i.aborted;
               i_busy = i.busy;
               i_utilization =
                 (if makespan = 0 then 0.0
                  else float_of_int i.busy /. float_of_int makespan);
               i_faults = i.faults;
               i_degraded_at = i.degraded_at;
               i_health = Option.map health_stat_of i.hm;
               i_totals = i.totals;
             })
           instances);
    r_slo = slo;
    r_health = health_sum;
    r_fail_open = !observed_fail_open;
    r_memo_hits = !memo_hits;
    r_memo_misses = !memo_misses;
    r_metrics = Metrics.snapshot reg;
  }

let pp_percentiles buf label p =
  Buffer.add_string buf
    (Printf.sprintf "%s count=%d min=%d mean=%.3f p50=%d p95=%d p99=%d max=%d\n"
       label p.p_count p.p_min p.p_mean p.p50 p.p95 p.p99 p.p_max)

let percentiles_json p =
  J.Obj
    [
      ("count", J.Int p.p_count);
      ("min", J.Int p.p_min);
      ("mean", J.Float p.p_mean);
      ("p50", J.Int p.p50);
      ("p95", J.Int p.p95);
      ("p99", J.Int p.p99);
      ("max", J.Int p.p_max);
    ]

let health_stat_json hs =
  J.Obj
    [
      ("state", J.Str (Health.state_label hs.hs_state));
      ("transitions", J.Int hs.hs_transitions);
      ("readmissions", J.Int hs.hs_readmissions);
      ("relapses", J.Int hs.hs_relapses);
      ("probes_passed", J.Int hs.hs_probes_passed);
      ("probes_failed", J.Int hs.hs_probes_failed);
      ("probe_cycles", J.Int hs.hs_probe_cycles);
    ]

(* --- multi-tenant serving --------------------------------------------- *)

(* The tenancy layer hosts several compiled artifacts behind one fleet.
   It keeps the single-model determinism architecture intact:

   1. Generation + admission are pure functions of the seed (or of the
      replayed trace file): the class mix, payload seeds and arrival
      cycles come from one Rng stream, the per-window ingress cap sheds
      from arrivals alone, and the SLO shed pass compares *predicted*
      queueing-free sojourns — computed from exact per-request service
      cycles, which are themselves pure functions of the request —
      against per-class targets. The shed set never sees the fleet.
   2. Execution is per-request on a fresh machine (no faults in the
      multi-tenant path: tenancy composes with the single-model fault
      machinery, it does not duplicate it).
   3. Scheduling (pinning, hot swaps, per-instance clocks) happens on
      the submitting domain and only feeds sched-track metrics. *)

type model = {
  m_name : string;
  m_artifact : C.artifact;
  m_graph : Ir.Graph.t;
}

type model_class = {
  k_name : string;
  k_model : string;
  k_slo : int option;
  k_weight : int;
}

type trace_entry = {
  t_cycle : int;
  t_class : string;
  t_seed : int;
  t_line : int;
}

type mt_arrival =
  | Mt_closed
  | Mt_poisson of { mean_gap : int }
  | Mt_diurnal of { mean_gap : int; period : int }
  | Mt_bursty of { mean_gap : int; burst : int }
  | Mt_replay of trace_entry list

type placement = Pinned | Swap

type mt_config = {
  mt_workers : int;
  mt_max_batch : int;
  mt_queue_depth : int;
  mt_requests : int;
  mt_seed : int;
  mt_arrival : mt_arrival;
  mt_window : int;
  mt_dispatch_overhead : int;
  mt_swap_overhead : int;
  mt_placement : placement;
  mt_jobs : int;
  mt_use_plan : bool;
  mt_degraded_instances : int list;
  mt_health : Health.config option;
}

let mt_default =
  {
    mt_workers = 4;
    mt_max_batch = 8;
    mt_queue_depth = 32;
    mt_requests = 64;
    mt_seed = 42;
    mt_arrival = Mt_closed;
    mt_window = 0;
    mt_dispatch_overhead = 1_000;
    mt_swap_overhead = 5_000;
    mt_placement = Swap;
    mt_jobs = 1;
    mt_use_plan = true;
    mt_degraded_instances = [];
    mt_health = None;
  }

type mt_request = {
  q_id : int;
  q_class : int;  (* index into the class list *)
  q_input_seed : int;
  q_arrival : int;
}

type mt_outcome =
  | Mt_served of {
      mo_instance : int;
      mo_batch : int;
      mo_start : int;
      mo_finish : int;
      mo_service : int;
      mo_digest : string;
      mo_pred_sojourn : int;
    }
  | Mt_shed_queue of { mo_window : int }
  | Mt_shed_slo of { mo_pred_sojourn : int }

type class_stat = {
  cs_name : string;
  cs_model : string;
  cs_slo : int option;
  cs_weight : int;
  cs_requests : int;
  cs_served : int;
  cs_shed_queue : int;
  cs_shed_slo : int;
  cs_observed_violations : int;
  cs_service : percentiles;
}

type mt_instance_stat = {
  mi_id : int;
  mi_batches : int;
  mi_served : int;
  mi_busy : int;
  mi_swaps : int;
  mi_utilization : float;
  mi_model : string option;
  mi_health : health_stat option;
}

type mt_report = {
  mt_cfg : mt_config;
  mt_class_list : model_class list;
  mt_resolved_window : int;
  mt_resolved_gap : int;
  mt_batch : int;  (** resolved batch size (autotuned when [mt_max_batch = 0]) *)
  mt_outcomes : (mt_request * mt_outcome) list;
  mt_served : int;
  mt_shed_queue : int;
  mt_shed_slo : int;
  mt_swaps : int;
  mt_class_stats : class_stat list;
  mt_service : percentiles;
  mt_sojourn : percentiles;
  mt_makespan : int;
  mt_throughput_rps : float;
  mt_fail_open : int;
  mt_instances : mt_instance_stat list;
  mt_metrics : Metrics.snapshot;
}

(* --- arrival trace format ---------------------------------------------

   Line-oriented, replayable with `htvmc serve --replay`:

     htvm-serve-trace v1
     # comment
     <cycle> <class-name> <seed>

   Cycles must be non-negative and non-decreasing (requests are in
   arrival order, line order breaks ties). *)

let trace_header = "htvm-serve-trace v1"

let render_arrival_trace r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (trace_header ^ "\n");
  Buffer.add_string buf "# cycle class seed\n";
  List.iter
    (fun (q, _) ->
      let cls = List.nth r.mt_class_list q.q_class in
      Buffer.add_string buf
        (Printf.sprintf "%d %s %d\n" q.q_arrival cls.k_name q.q_input_seed))
    r.mt_outcomes;
  Buffer.contents buf

let parse_arrival_trace text =
  let lines = String.split_on_char '\n' text in
  match lines with
  | [] -> Error (Bad_trace { line = 1; reason = "empty trace" })
  | header :: rest ->
      if String.trim header <> trace_header then
        Error
          (Bad_trace
             { line = 1; reason = Printf.sprintf "expected header %S" trace_header })
      else
        let rec go line_no acc prev_cycle = function
          | [] -> Ok (List.rev acc)
          | line :: rest -> (
              let trimmed = String.trim line in
              if trimmed = "" || trimmed.[0] = '#' then
                go (line_no + 1) acc prev_cycle rest
              else
                let tokens =
                  List.filter (( <> ) "") (String.split_on_char ' ' trimmed)
                in
                match tokens with
                | [ cycle; cls; seed ] -> (
                    match (int_of_string_opt cycle, int_of_string_opt seed) with
                    | None, _ ->
                        Error
                          (Bad_trace
                             {
                               line = line_no;
                               reason = Printf.sprintf "bad cycle %S" cycle;
                             })
                    | _, None ->
                        Error
                          (Bad_trace
                             {
                               line = line_no;
                               reason = Printf.sprintf "bad seed %S" seed;
                             })
                    | Some c, Some _ when c < 0 ->
                        Error
                          (Bad_trace
                             {
                               line = line_no;
                               reason = "arrival cycle must be >= 0";
                             })
                    | Some c, Some _ when c < prev_cycle ->
                        Error
                          (Bad_trace
                             {
                               line = line_no;
                               reason = "arrival cycles must be non-decreasing";
                             })
                    | Some c, Some s ->
                        go (line_no + 1)
                          ({ t_cycle = c; t_class = cls; t_seed = s; t_line = line_no }
                          :: acc)
                          c rest)
                | _ ->
                    Error
                      (Bad_trace
                         {
                           line = line_no;
                           reason =
                             Printf.sprintf
                               "expected `cycle class seed`, got %d token(s)"
                               (List.length tokens);
                         }))
        in
        go 2 [] 0 rest

let load_arrival_trace path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse_arrival_trace text
  | exception Sys_error e -> Error (Bad_trace { line = 0; reason = e })

(* --- multi-tenant run -------------------------------------------------- *)

let mt_arrival_to_string r =
  match r.mt_cfg.mt_arrival with
  | Mt_closed -> "closed"
  | Mt_poisson _ -> Printf.sprintf "poisson gap %d" r.mt_resolved_gap
  | Mt_diurnal { period; _ } ->
      Printf.sprintf "diurnal gap %d period %d" r.mt_resolved_gap period
  | Mt_bursty { burst; _ } ->
      Printf.sprintf "bursty burst %d gap %d" burst r.mt_resolved_gap
  | Mt_replay entries -> Printf.sprintf "replay n=%d" (List.length entries)

let placement_to_string = function Pinned -> "pinned" | Swap -> "swap"

(* Validate the static configuration; every violation is a typed
   [Bad_config] rather than an exception, so `htvmc serve` can print it
   and exit cleanly. *)
let mt_validate cfg ~models ~classes =
  let err msg = Error (Bad_config msg) in
  if cfg.mt_workers < 1 then err "workers must be >= 1"
  else if cfg.mt_max_batch < 0 then err "max_batch must be >= 1 (or 0 = autotune)"
  else if cfg.mt_queue_depth < 1 then err "queue_depth must be >= 1"
  else if cfg.mt_requests < 0 then err "requests must be >= 0"
  else if cfg.mt_dispatch_overhead < 0 then err "dispatch_overhead must be >= 0"
  else if cfg.mt_swap_overhead < 0 then err "swap_overhead must be >= 0"
  else if models = [] then err "the model registry is empty"
  else if classes = [] then err "at least one model class is required"
  else if
    List.length (List.sort_uniq compare (List.map (fun m -> m.m_name) models))
    <> List.length models
  then err "model registry names must be unique"
  else if
    List.length (List.sort_uniq compare (List.map (fun k -> k.k_name) classes))
    <> List.length classes
  then err "class names must be unique"
  else if List.exists (fun k -> k.k_name = "" || String.contains k.k_name ' ') classes
  then err "class names must be non-empty and contain no spaces"
  else if List.exists (fun k -> k.k_weight < 1) classes then
    err "class weights must be >= 1"
  else if
    List.exists (fun k -> match k.k_slo with Some t -> t < 1 | None -> false) classes
  then err "class SLO targets must be >= 1"
  else if
    List.exists
      (fun id -> id < 0 || id >= cfg.mt_workers)
      cfg.mt_degraded_instances
  then
    err
      (Printf.sprintf "degraded instance ids must be in [0, %d)" cfg.mt_workers)
  else if
    List.length (List.sort_uniq compare cfg.mt_degraded_instances)
    <> List.length cfg.mt_degraded_instances
  then err "degraded instance ids must be distinct"
  else
    match cfg.mt_arrival with
    | Mt_diurnal { period; _ } when period < 0 ->
        err "diurnal period must be >= 0 (0 = auto)"
    | Mt_bursty { burst; _ } when burst < 1 -> err "burst must be >= 1"
    | _ -> Ok ()

(* Resolve each class's model name against the registry; the distinct
   models actually referenced get dense indices in first-reference
   order (the pinning map runs over those). *)
let mt_resolve ~models ~classes =
  let rec resolve acc used = function
    | [] -> Ok (List.rev acc, List.rev used)
    | k :: rest -> (
        match List.find_opt (fun m -> m.m_name = k.k_model) models with
        | None -> Error (Unknown_model { class_name = k.k_name; model = k.k_model })
        | Some m ->
            let used, idx =
              match
                List.mapi (fun i u -> (i, u)) (List.rev used)
                |> List.find_opt (fun (_, u) -> u.m_name = m.m_name)
              with
              | Some (i, _) -> (used, i)
              | None -> (m :: used, List.length used)
            in
            resolve ((k, idx) :: acc) used rest)
  in
  resolve [] [] classes

let mt_run ?trace ?metrics cfg ~models ~classes =
  match mt_validate cfg ~models ~classes with
  | Error _ as e -> e
  | Ok () ->
  match mt_resolve ~models ~classes with
  | Error _ as e -> e
  | Ok (class_models, used_models) ->
  let n_classes = List.length classes in
  let class_arr = Array.of_list classes in
  let model_of_class = Array.of_list (List.map snd class_models) in
  let used = Array.of_list used_models in
  let n_models = Array.length used in
  (match cfg.mt_placement with
  | Pinned when cfg.mt_workers < n_models ->
      Error
        (Bad_config
           (Printf.sprintf
              "pinned placement needs workers >= distinct models (%d < %d)"
              cfg.mt_workers n_models))
  | _ -> Ok ())
  |> function
  | Error _ as e -> e
  | Ok () ->
  (* Replayed traces must only reference configured classes. *)
  let class_index name =
    let rec go i = if i >= n_classes then None
      else if class_arr.(i).k_name = name then Some i else go (i + 1)
    in
    go 0
  in
  let replay_resolved =
    match cfg.mt_arrival with
    | Mt_replay entries ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | e :: rest -> (
              match class_index e.t_class with
              | None ->
                  Error
                    (Unknown_class
                       {
                         class_name = e.t_class;
                         context = Printf.sprintf "trace line %d" e.t_line;
                       })
              | Some i -> go ((e, i) :: acc) rest)
        in
        go [] entries
    | _ -> Ok []
  in
  match replay_resolved with
  | Error _ as e -> e
  | Ok replay ->
  let reg = match metrics with Some r -> r | None -> Metrics.create () in
  (* --- probes: one fault-free execution per referenced model, pure
     functions of (artifact, seed) — forced only when window or gap
     auto-resolution needs them. *)
  let probe =
    lazy
      (Array.fold_left
         (fun acc m ->
           let inputs = Models.Zoo.random_input ~seed:cfg.mt_seed m.m_graph in
           let _, rep = C.run m.m_artifact ~inputs in
           max acc (max 1 (C.full_cycles rep)))
         1 used)
  in
  let open_mode =
    match cfg.mt_arrival with Mt_closed -> false | _ -> true
  in
  let resolved_gap =
    match cfg.mt_arrival with
    | Mt_closed | Mt_replay _ -> 0
    | Mt_poisson { mean_gap } | Mt_diurnal { mean_gap; _ }
    | Mt_bursty { mean_gap; _ } ->
        if mean_gap > 0 then mean_gap else max 1 (Lazy.force probe / 2)
  in
  let window =
    if not open_mode then 0
    else if cfg.mt_window > 0 then cfg.mt_window
    else Lazy.force probe
  in
  let resolved_period =
    match cfg.mt_arrival with
    | Mt_diurnal { period; _ } -> if period > 0 then period else 8 * window
    | _ -> 0
  in
  (* Health lifecycle (observed plane only — the multi-tenant path is
     fault-free): auto fields resolve against the largest model's probe
     time, violations surface as typed [Bad_config] errors. *)
  let health_res =
    match cfg.mt_health with
    | None -> Ok None
    | Some hc -> (
        match resolve_health hc ~probe_cycles:(Lazy.force probe) with
        | Ok hc -> Ok (Some hc)
        | Error msg -> Error (Bad_config msg))
  in
  match health_res with
  | Error _ as e -> e
  | Ok mt_health_cfg ->
  (* --- generation: class mix, payload seeds and arrivals from one Rng
     stream (or verbatim from the replayed trace). *)
  let total_weight =
    Array.fold_left (fun acc k -> acc + k.k_weight) 0 class_arr
  in
  let pick_class rng =
    let d = Util.Rng.int rng total_weight in
    let rec go i acc =
      let acc = acc + class_arr.(i).k_weight in
      if d < acc then i else go (i + 1) acc
    in
    go 0 0
  in
  let requests =
    match replay with
    | _ :: _ | [] when (match cfg.mt_arrival with Mt_replay _ -> true | _ -> false)
      ->
        List.mapi
          (fun i (e, cls) ->
            { q_id = i; q_class = cls; q_input_seed = e.t_seed; q_arrival = e.t_cycle })
          replay
    | _ ->
        let rng = Util.Rng.create cfg.mt_seed in
        let clock = ref 0 in
        List.init cfg.mt_requests (fun k ->
            let cls = pick_class rng in
            let seed = Util.Rng.int_in rng 1 1_000_000 in
            (match cfg.mt_arrival with
            | Mt_closed | Mt_replay _ -> ()
            | Mt_poisson _ -> clock := !clock + exp_gap rng ~mean:resolved_gap
            | Mt_diurnal _ ->
                let pos = !clock mod resolved_period in
                let half = max 1 (resolved_period / 2) in
                let peak = max 1 (resolved_gap / 2) in
                let trough = 2 * resolved_gap in
                let d = abs (pos - half) in
                let mean = peak + ((trough - peak) * d / half) in
                clock := !clock + exp_gap rng ~mean
            | Mt_bursty { burst; _ } ->
                if k mod burst = 0 then
                  clock := !clock + exp_gap rng ~mean:(burst * resolved_gap));
            { q_id = k; q_class = cls; q_input_seed = seed; q_arrival = !clock })
  in
  let n_requests = List.length requests in
  let outcomes = Array.make n_requests None in
  (* --- ingress-cap admission: a pure function of the arrival stream. *)
  let admitted =
    if not open_mode then List.map (fun q -> (0, q)) requests
    else begin
      let in_window = Hashtbl.create 16 in
      List.filter_map
        (fun q ->
          let w = q.q_arrival / window in
          let n = Option.value ~default:0 (Hashtbl.find_opt in_window w) in
          if n >= cfg.mt_queue_depth then begin
            outcomes.(q.q_id) <- Some (Mt_shed_queue { mo_window = w });
            Trace.interval trace ~track:"serve" ~cat:"serve" ~ts:q.q_arrival
              ~dur:0
              ~args:[ ("request", J.Int q.q_id); ("window", J.Int w) ]
              "shed-queue";
            None
          end
          else begin
            Hashtbl.replace in_window w (n + 1);
            Some (w, q)
          end)
        requests
    end
  in
  (* --- execution: every ingress-admitted request on the pool. SLO
     shedding needs exact service cycles, so candidates execute before
     the shed pass decides — the simulator is cheap and the shed set
     stays a pure function of the arrival stream. *)
  let execs =
    Util.Pool.with_pool ~jobs:cfg.mt_jobs (fun pool ->
        Util.Pool.map pool
          (fun (_, q) ->
            let m = used.(model_of_class.(q.q_class)) in
            let inputs = Models.Zoo.random_input ~seed:q.q_input_seed m.m_graph in
            let out, rep = C.run ~use_plan:cfg.mt_use_plan m.m_artifact ~inputs in
            (digest_tensor out, C.full_cycles rep, rep.Sim.Machine.totals))
          admitted)
  in
  let work = List.combine admitted execs in
  (* --- SLO shed + batch assembly, in arrival order. Batches group one
     window's admitted requests per model (a batch executes on one
     artifact); each batch is predicted to dispatch the moment its
     window closes onto an idle machine, paying the dispatch overhead
     plus — under [Swap] placement — one cold model load. A request
     whose predicted sojourn exceeds its class SLO is shed and frees
     its batch slot for the next arrival. *)
  let swap_pred =
    match cfg.mt_placement with Swap -> cfg.mt_swap_overhead | Pinned -> 0
  in
  let windows =
    let tbl = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun (((w, _), _) as item) ->
        (match Hashtbl.find_opt tbl w with
        | None ->
            Hashtbl.add tbl w (ref [ item ]);
            order := w :: !order
        | Some cell -> cell := item :: !cell))
      work;
    List.rev_map (fun w -> (w, List.rev !(Hashtbl.find tbl w))) !order
    |> List.rev
  in
  (* One assembly pass at a given batch size; returns the batch list (in
     dispatch order) plus the shed-SLO set, without mutating anything —
     the autotuner evaluates several sizes before one is committed. *)
  let assemble max_batch =
    let batches = ref [] in
    let shed = ref [] in
    List.iter
      (fun (w, items) ->
        let dispatch_t = if open_mode then (w + 1) * window else 0 in
        let base = dispatch_t + cfg.mt_dispatch_overhead + swap_pred in
        (* per-model fill count and predicted cursor of the open batch *)
        let fill = Array.make n_models 0 in
        let cursor = Array.make n_models 0 in
        let current = Array.make n_models [] in
        let flush m =
          if current.(m) <> [] then
            batches := (w, m, List.rev current.(m)) :: !batches;
          current.(m) <- [];
          fill.(m) <- 0
        in
        List.iter
          (fun (((_, q), (digest, service, totals)) : (int * mt_request) * _) ->
            let m = model_of_class.(q.q_class) in
            let start = if fill.(m) = 0 then base else cursor.(m) in
            let pred_finish = start + service in
            let pred_sojourn = pred_finish - q.q_arrival in
            let violates =
              match class_arr.(q.q_class).k_slo with
              | Some t -> pred_sojourn > t
              | None -> false
            in
            if violates then shed := (q, pred_sojourn) :: !shed
            else begin
              current.(m) <- (q, digest, service, totals, pred_sojourn) :: current.(m);
              cursor.(m) <- pred_finish;
              fill.(m) <- fill.(m) + 1;
              if fill.(m) >= max_batch then flush m
            end)
          items;
        for m = 0 to n_models - 1 do
          flush m
        done)
      windows;
    (List.rev !batches, List.rev !shed)
  in
  (* Batch autotune: with [mt_max_batch = 0], score candidate sizes on
     the predicted (fleet-free) schedule — fewest SLO sheds first, then
     lowest predicted total cost, then the smaller size. The cost is
     total work (each batch pays the dispatch overhead and, under Swap,
     one cold load — fewer batches amortize it) plus the summed
     predicted sojourns (bigger batches queue requests behind each
     other), so a dispatch overhead dwarfing per-request service pushes
     the tuner toward wide batches and a cheap dispatch toward narrow
     ones. A pure function of the arrival stream, so the choice is
     workers/jobs-invariant like everything else in the tally. *)
  let batch_size, batches, shed_slo_list =
    if cfg.mt_max_batch > 0 then
      let b, s = assemble cfg.mt_max_batch in
      (cfg.mt_max_batch, b, s)
    else
      let candidates = [ 1; 2; 4; 8; 16; 32 ] in
      let best =
        List.fold_left
          (fun best b ->
            let batches, shed = assemble b in
            let work =
              List.fold_left
                (fun acc (_, _, items) ->
                  List.fold_left
                    (fun acc (_, _, service, _, _) -> acc + service)
                    (acc + cfg.mt_dispatch_overhead + swap_pred)
                    items)
                0 batches
            in
            let sojourns =
              List.fold_left
                (fun acc (_, _, items) ->
                  List.fold_left
                    (fun acc (_, _, _, _, pred) -> acc + pred)
                    acc items)
                0 batches
            in
            let cost = (List.length shed, work + sojourns, b) in
            match best with
            | Some (best_cost, _) when compare cost best_cost >= 0 -> best
            | _ -> Some (cost, (b, batches, shed)))
          None candidates
      in
      match best with
      | Some (_, (b, batches, shed)) -> (b, batches, shed)
      | None -> assert false
  in
  List.iter
    (fun (q, pred) -> outcomes.(q.q_id) <- Some (Mt_shed_slo { mo_pred_sojourn = pred }))
    shed_slo_list;
  (* --- scheduling: the only fleet-shaped pass. Pinned placement maps
     instance i to referenced model (i mod n_models); Swap placement
     routes anywhere and charges [mt_swap_overhead] whenever the
     instance's resident model changes. *)
  let instances =
    Array.init cfg.mt_workers (fun id ->
        let boot_degraded = List.mem id cfg.mt_degraded_instances in
        object
          val mutable free_at = 0
          val mutable busy = 0
          val mutable served = 0
          val mutable batches = 0
          val mutable swaps = 0
          val mutable probe_cyc = 0
          val hm =
            Option.map
              (fun hc ->
                Health.create ~degraded_at_start:boot_degraded hc ~instance:id)
              mt_health_cfg
          val mutable loaded =
            (match cfg.mt_placement with
            | Pinned -> Some (id mod n_models)
            | Swap -> None)
          method id = id
          method free_at = free_at
          method busy = busy
          method served = served
          method batches = batches
          method swaps = swaps
          method probe_cyc = probe_cyc
          method hm = hm
          method loaded = loaded

          (* Without a lifecycle a boot-degraded instance stays out of
             rotation for the whole run. *)
          method eligible =
            match hm with
            | Some m -> Health.eligible m
            | None -> not boot_degraded

          method advance now =
            match hm with
            | None -> ()
            | Some m ->
                let pc = Health.advance m ~now in
                busy <- busy + pc;
                probe_cyc <- probe_cyc + pc

          method set_free_at t = free_at <- t
          method add_busy d = busy <- busy + d
          method add_served n = served <- served + n
          method incr_batches = batches <- batches + 1
          method incr_swaps = swaps <- swaps + 1
          method set_loaded m = loaded <- Some m
        end)
  in
  let mt_fail_open = ref 0 in
  let eligible m =
    match cfg.mt_placement with
    | Swap -> Array.to_list instances
    | Pinned ->
        List.filter
          (fun i -> i#id mod n_models = m)
          (Array.to_list instances)
  in
  List.iteri
    (fun batch_idx (w, m, items) ->
      let pool = eligible m in
      let dispatch_t =
        if open_mode then (w + 1) * window
        else List.fold_left (fun acc i -> min acc i#free_at) max_int pool
      in
      (* Let lifecycles catch up to the dispatch instant (cooldowns
         expire, probes run and charge their cycles), then route within
         the in-rotation subset; an empty subset fails open to the full
         placement pool. *)
      List.iter (fun i -> i#advance dispatch_t) pool;
      let pool =
        match List.filter (fun i -> i#eligible) pool with
        | [] ->
            incr mt_fail_open;
            pool
        | live -> live
      in
      let inst =
        List.fold_left
          (fun best i -> if i#free_at < best#free_at then i else best)
          (List.hd pool) (List.tl pool)
      in
      let start = max dispatch_t inst#free_at in
      (* Resident model differs (or nothing is loaded yet): pay one
         reload. Unreachable under Pinned — the eligible pool always
         matches the batch's model. *)
      let swap_cost =
        if inst#loaded = Some m then 0
        else begin
          inst#incr_swaps;
          inst#set_loaded m;
          cfg.mt_swap_overhead
        end
      in
      let cursor = ref (start + cfg.mt_dispatch_overhead + swap_cost) in
      List.iter
        (fun (q, digest, service, _totals, pred) ->
          outcomes.(q.q_id) <-
            Some
              (Mt_served
                 {
                   mo_instance = inst#id;
                   mo_batch = batch_idx;
                   mo_start = !cursor;
                   mo_finish = !cursor + service;
                   mo_service = service;
                   mo_digest = digest;
                   mo_pred_sojourn = pred;
                 });
          cursor := !cursor + service;
          inst#add_served 1)
        items;
      let finish = !cursor in
      Trace.interval trace
        ~track:(Printf.sprintf "instance %d" inst#id)
        ~cat:"mtserve" ~ts:start ~dur:(finish - start)
        ~args:
          [
            ("batch", J.Int batch_idx);
            ("model", J.Str used.(m).m_name);
            ("requests", J.Int (List.length items));
          ]
        (Printf.sprintf "batch %d [%s] (%d req)" batch_idx used.(m).m_name
           (List.length items));
      inst#set_free_at finish;
      inst#add_busy (finish - start);
      inst#incr_batches)
    batches;
  (* Drain the lifecycles to the fleet's last completion so in-flight
     cooldowns and probes settle before stats are snapshotted. *)
  (match mt_health_cfg with
  | None -> ()
  | Some _ ->
      let fleet_end =
        Array.fold_left (fun acc i -> max acc i#free_at) 0 instances
      in
      Array.iter (fun i -> i#advance fleet_end) instances);
  (* --- aggregation ----------------------------------------------- *)
  let outcomes =
    List.map
      (fun q ->
        match outcomes.(q.q_id) with
        | Some o -> (q, o)
        | None -> assert false)
      requests
  in
  let served_list =
    List.filter_map
      (function _, Mt_served s -> Some s.mo_service | _ -> None)
      outcomes
  in
  let sojourn_list =
    List.filter_map
      (function
        | q, Mt_served s -> Some (s.mo_finish - q.q_arrival) | _ -> None)
      outcomes
  in
  let served = List.length served_list in
  let shed_queue =
    List.length
      (List.filter (function _, Mt_shed_queue _ -> true | _ -> false) outcomes)
  in
  let shed_slo =
    List.length
      (List.filter (function _, Mt_shed_slo _ -> true | _ -> false) outcomes)
  in
  let makespan =
    Array.fold_left (fun acc i -> max acc i#free_at) 0 instances
  in
  let freq_hz =
    float_of_int used.(0).m_artifact.C.cfg.C.platform.Arch.Platform.freq_mhz
    *. 1.0e6
  in
  let throughput =
    if makespan = 0 then 0.0
    else float_of_int served /. (float_of_int makespan /. freq_hz)
  in
  let swaps = Array.fold_left (fun acc i -> acc + i#swaps) 0 instances in
  (* per-class stats *)
  let class_stats =
    List.mapi
      (fun ci k ->
        let mine = List.filter (fun (q, _) -> q.q_class = ci) outcomes in
        let count p = List.length (List.filter p mine) in
        let observed =
          match k.k_slo with
          | None -> 0
          | Some t ->
              count (function
                | q, Mt_served s -> s.mo_finish - q.q_arrival > t
                | _ -> false)
        in
        {
          cs_name = k.k_name;
          cs_model = k.k_model;
          cs_slo = k.k_slo;
          cs_weight = k.k_weight;
          cs_requests = List.length mine;
          cs_served = count (function _, Mt_served _ -> true | _ -> false);
          cs_shed_queue =
            count (function _, Mt_shed_queue _ -> true | _ -> false);
          cs_shed_slo = count (function _, Mt_shed_slo _ -> true | _ -> false);
          cs_observed_violations = observed;
          cs_service =
            percentiles_of
              (List.filter_map
                 (function _, Mt_served s -> Some s.mo_service | _ -> None)
                 mine);
        })
      classes
  in
  (* --- metrics: per-class admission/outcome counters and service
     histograms on the cycles track (workers/jobs-invariant); swaps,
     per-instance stats, makespan/throughput and observed SLO
     violations on the sched track. *)
  let cycle_buckets =
    [ 1_000; 3_000; 10_000; 30_000; 100_000; 300_000; 1_000_000; 3_000_000;
      10_000_000 ]
  in
  Metrics.inc
    (Metrics.counter reg ~help:"Requests generated or replayed."
       "htvm_mtserve_requests_total")
    n_requests;
  Metrics.inc
    (Metrics.counter reg ~help:"Requests served to completion."
       "htvm_mtserve_served_total")
    served;
  Metrics.inc
    (Metrics.counter reg ~help:"Requests shed at the per-window ingress cap."
       "htvm_mtserve_shed_queue_total")
    shed_queue;
  Metrics.inc
    (Metrics.counter reg
       ~help:"Requests shed because the predicted sojourn broke the class SLO."
       "htvm_mtserve_shed_slo_total")
    shed_slo;
  Metrics.inc
    (Metrics.counter reg ~help:"Batches assembled (predicted schedule)."
       "htvm_mtserve_batches_total")
    (List.length batches);
  Metrics.set_int
    (Metrics.gauge reg
       ~help:"Resolved batch size (autotuned when max_batch = 0)."
       "htvm_mtserve_batch_size")
    batch_size;
  List.iter
    (fun cs ->
      let labels = [ ("class", cs.cs_name) ] in
      let c name help = Metrics.counter reg ~labels ~help name in
      Metrics.inc
        (c "htvm_mtserve_class_requests_total" "Per-class requests.")
        cs.cs_requests;
      Metrics.inc
        (c "htvm_mtserve_class_served_total" "Per-class served requests.")
        cs.cs_served;
      Metrics.inc
        (c "htvm_mtserve_class_shed_queue_total"
           "Per-class ingress-cap sheds.")
        cs.cs_shed_queue;
      Metrics.inc
        (c "htvm_mtserve_class_slo_pred_violations_total"
           "Per-class predicted-SLO violations (shed before dispatch).")
        cs.cs_shed_slo;
      let h =
        Metrics.histogram reg ~labels ~buckets:cycle_buckets
          ~help:"Per-class service cycles." "htvm_mtserve_class_service_cycles"
      in
      List.iter
        (fun (q, o) ->
          match o with
          | Mt_served s when class_arr.(q.q_class).k_name = cs.cs_name ->
              Metrics.observe h s.mo_service
          | _ -> ())
        outcomes)
    class_stats;
  let m_window_series =
    Metrics.series reg
      ~columns:[ "arrivals"; "admitted"; "shed_queue"; "shed_slo" ]
      ~help:"Per dispatch window: multi-tenant admission accounting."
      "htvm_mtserve_window"
  in
  (let win_of q = if open_mode then q.q_arrival / window else 0 in
   let win_ids = ref [] in
   let tbl = Hashtbl.create 16 in
   List.iter
     (fun (q, o) ->
       let w = win_of q in
       let cell =
         match Hashtbl.find_opt tbl w with
         | Some c -> c
         | None ->
             let c = ref (0, 0, 0, 0) in
             Hashtbl.add tbl w c;
             win_ids := w :: !win_ids;
             c
       in
       let arr, adm, sq, ss = !cell in
       let adm, sq, ss =
         match o with
         | Mt_shed_queue _ -> (adm, sq + 1, ss)
         | Mt_shed_slo _ -> (adm, sq, ss + 1)
         | Mt_served _ -> (adm + 1, sq, ss)
       in
       cell := (arr + 1, adm, sq, ss))
     outcomes;
   List.iter
     (fun w ->
       let arr, adm, sq, ss = !(Hashtbl.find tbl w) in
       let ts = if open_mode then (w + 1) * window else 0 in
       Metrics.sample m_window_series ~ts
         [ float_of_int arr; float_of_int adm; float_of_int sq; float_of_int ss ])
     (List.rev !win_ids));
  List.iter
    (fun cs ->
      Metrics.inc
        (Metrics.counter reg ~track:Metrics.Sched
           ~labels:[ ("class", cs.cs_name) ]
           ~help:"Per-class observed SLO violations (fleet-shape dependent)."
           "htvm_mtserve_class_slo_observed_violations_total")
        cs.cs_observed_violations)
    class_stats;
  Array.iter
    (fun i ->
      let labels = [ ("instance", string_of_int i#id) ] in
      let g name help = Metrics.gauge reg ~track:Metrics.Sched ~labels ~help name in
      Metrics.set_int (g "htvm_mtsched_instance_busy_cycles" "Busy cycles.") i#busy;
      Metrics.set_int (g "htvm_mtsched_instance_served" "Requests served.") i#served;
      Metrics.set_int
        (g "htvm_mtsched_instance_swaps" "Model reloads paid by this instance.")
        i#swaps;
      match i#hm with
      | None -> ()
      | Some m ->
          Metrics.set_int
            (g "htvm_mtsched_instance_probe_cycles"
               "Cycles the instance spent on health probes.")
            i#probe_cyc;
          Metrics.set_int
            (g "htvm_mtsched_instance_readmissions"
               "Times the instance rejoined the healthy rotation.")
            (Health.readmissions m))
    instances;
  Metrics.inc
    (Metrics.counter reg ~track:Metrics.Sched
       ~help:"Batches dispatched with no eligible instance in their pool."
       "htvm_mtsched_fail_open_total")
    !mt_fail_open;
  Metrics.set_int
    (Metrics.gauge reg ~track:Metrics.Sched ~help:"End-to-end makespan cycles."
       "htvm_mtsched_makespan_cycles")
    makespan;
  Metrics.set
    (Metrics.gauge reg ~track:Metrics.Sched
       ~help:"Served requests per second of simulated time."
       "htvm_mtsched_throughput_rps")
    throughput;
  Ok
    {
      mt_cfg = cfg;
      mt_class_list = classes;
      mt_resolved_window = window;
      mt_resolved_gap = resolved_gap;
      mt_batch = batch_size;
      mt_outcomes = outcomes;
      mt_served = served;
      mt_shed_queue = shed_queue;
      mt_shed_slo = shed_slo;
      mt_swaps = swaps;
      mt_class_stats = class_stats;
      mt_service = percentiles_of served_list;
      mt_sojourn = percentiles_of sojourn_list;
      mt_makespan = makespan;
      mt_throughput_rps = throughput;
      mt_fail_open = !mt_fail_open;
      mt_instances =
        Array.to_list
          (Array.map
             (fun i ->
               {
                 mi_id = i#id;
                 mi_batches = i#batches;
                 mi_served = i#served;
                 mi_busy = i#busy;
                 mi_swaps = i#swaps;
                 mi_utilization =
                   (if makespan = 0 then 0.0
                    else float_of_int i#busy /. float_of_int makespan);
                 mi_model = Option.map (fun m -> used.(m).m_name) i#loaded;
                 mi_health = Option.map health_stat_of i#hm;
               })
             instances);
      mt_metrics = Metrics.snapshot reg;
    }

(* --- multi-tenant rendering ------------------------------------------- *)

(* The functional ledger of a multi-tenant run: per-request outcomes
   (class, digest, service, predicted sojourn), per-class totals and
   service percentiles. Pure function of the seed (or of the replayed
   trace) — byte-identical at any workers/jobs. *)
let mt_tally r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "htvm-mtserve-tally v1\n";
  Buffer.add_string buf
    (Printf.sprintf
       "seed %d requests %d arrival %s batch %d queue-depth %d window %d \
        placement %s swap-overhead %d\n"
       r.mt_cfg.mt_seed
       (List.length r.mt_outcomes)
       (mt_arrival_to_string r) r.mt_batch r.mt_cfg.mt_queue_depth
       r.mt_resolved_window
       (placement_to_string r.mt_cfg.mt_placement)
       r.mt_cfg.mt_swap_overhead);
  List.iter
    (fun k ->
      Buffer.add_string buf
        (Printf.sprintf "class %s model=%s slo=%s weight=%d\n" k.k_name k.k_model
           (match k.k_slo with None -> "none" | Some t -> string_of_int t)
           k.k_weight))
    r.mt_class_list;
  let class_name i = (List.nth r.mt_class_list i).k_name in
  List.iter
    (fun (q, o) ->
      Buffer.add_string buf
        (match o with
        | Mt_served s ->
            Printf.sprintf "req %d class=%s served digest=%s service=%d \
                            pred-sojourn=%d\n"
              q.q_id (class_name q.q_class) s.mo_digest s.mo_service
              s.mo_pred_sojourn
        | Mt_shed_queue { mo_window } ->
            Printf.sprintf "req %d class=%s shed-queue window=%d\n" q.q_id
              (class_name q.q_class) mo_window
        | Mt_shed_slo { mo_pred_sojourn } ->
            Printf.sprintf "req %d class=%s shed-slo pred-sojourn=%d\n" q.q_id
              (class_name q.q_class) mo_pred_sojourn))
    r.mt_outcomes;
  Buffer.add_string buf
    (Printf.sprintf "outcomes served=%d shed-queue=%d shed-slo=%d\n" r.mt_served
       r.mt_shed_queue r.mt_shed_slo);
  List.iter
    (fun cs ->
      Buffer.add_string buf
        (Printf.sprintf
           "class %s requests=%d served=%d shed-queue=%d shed-slo=%d\n"
           cs.cs_name cs.cs_requests cs.cs_served cs.cs_shed_queue cs.cs_shed_slo);
      pp_percentiles buf (Printf.sprintf "class %s service" cs.cs_name)
        cs.cs_service)
    r.mt_class_stats;
  pp_percentiles buf "service" r.mt_service;
  Buffer.contents buf

let mt_summary r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "served %d/%d requests (%d shed at ingress, %d shed by SLO) on %d \
        instance(s), batch %d, placement %s\n"
       r.mt_served
       (List.length r.mt_outcomes)
       r.mt_shed_queue r.mt_shed_slo r.mt_cfg.mt_workers r.mt_batch
       (placement_to_string r.mt_cfg.mt_placement));
  Buffer.add_string buf
    (Printf.sprintf
       "makespan %d cycles, throughput %.1f req/s, %d model swap(s)\n"
       r.mt_makespan r.mt_throughput_rps r.mt_swaps);
  if r.mt_cfg.mt_health <> None || r.mt_cfg.mt_degraded_instances <> [] then
    Buffer.add_string buf
      (Printf.sprintf "health: %d fail-open dispatch(es)\n" r.mt_fail_open);
  List.iter
    (fun cs ->
      Buffer.add_string buf
        (Printf.sprintf
           "class %s [%s]: %d/%d served, %d shed-queue, %d shed-slo%s, \
            p50=%d p99=%d\n"
           cs.cs_name cs.cs_model cs.cs_served cs.cs_requests cs.cs_shed_queue
           cs.cs_shed_slo
           (match cs.cs_slo with
           | None -> ""
           | Some t ->
               Printf.sprintf ", slo %d: %d observed violation(s)" t
                 cs.cs_observed_violations)
           cs.cs_service.p50 cs.cs_service.p99))
    r.mt_class_stats;
  pp_percentiles buf "service latency (cycles)" r.mt_service;
  pp_percentiles buf "sojourn latency (cycles)" r.mt_sojourn;
  List.iter
    (fun i ->
      Buffer.add_string buf
        (Printf.sprintf
           "instance %d: %d batch(es), %d served, %d swap(s), busy %d cycles \
            (%.1f%% utilization)%s"
           i.mi_id i.mi_batches i.mi_served i.mi_swaps i.mi_busy
           (100.0 *. i.mi_utilization)
           (match i.mi_model with
           | None -> ""
           | Some m -> Printf.sprintf ", model %s resident" m)
        ^ (match i.mi_health with
          | None -> ""
          | Some hs ->
              Printf.sprintf
                ", health %s (%d readmission(s), %d probe cycles)"
                (Health.state_label hs.hs_state)
                hs.hs_readmissions hs.hs_probe_cycles)
        ^ "\n"))
    r.mt_instances;
  Buffer.contents buf

let mt_to_json r =
  let class_name i = (List.nth r.mt_class_list i).k_name in
  let outcome_json (q, o) =
    let base =
      [
        ("id", J.Int q.q_id);
        ("class", J.Str (class_name q.q_class));
        ("arrival", J.Int q.q_arrival);
        ("input_seed", J.Int q.q_input_seed);
      ]
    in
    J.Obj
      (base
      @
      match o with
      | Mt_served s ->
          [
            ("outcome", J.Str "served");
            ("instance", J.Int s.mo_instance);
            ("batch", J.Int s.mo_batch);
            ("start", J.Int s.mo_start);
            ("finish", J.Int s.mo_finish);
            ("service_cycles", J.Int s.mo_service);
            ("pred_sojourn_cycles", J.Int s.mo_pred_sojourn);
            ("digest", J.Str s.mo_digest);
          ]
      | Mt_shed_queue { mo_window } ->
          [ ("outcome", J.Str "shed_queue"); ("window", J.Int mo_window) ]
      | Mt_shed_slo { mo_pred_sojourn } ->
          [
            ("outcome", J.Str "shed_slo");
            ("pred_sojourn_cycles", J.Int mo_pred_sojourn);
          ])
  in
  let class_json cs =
    J.Obj
      [
        ("name", J.Str cs.cs_name);
        ("model", J.Str cs.cs_model);
        ("slo_cycles", match cs.cs_slo with None -> J.Null | Some t -> J.Int t);
        ("weight", J.Int cs.cs_weight);
        ("requests", J.Int cs.cs_requests);
        ("served", J.Int cs.cs_served);
        ("shed_queue", J.Int cs.cs_shed_queue);
        ("shed_slo", J.Int cs.cs_shed_slo);
        ("observed_violations", J.Int cs.cs_observed_violations);
        ("service_cycles", percentiles_json cs.cs_service);
      ]
  in
  let instance_json i =
    J.Obj
      [
        ("id", J.Int i.mi_id);
        ("batches", J.Int i.mi_batches);
        ("served", J.Int i.mi_served);
        ("busy_cycles", J.Int i.mi_busy);
        ("swaps", J.Int i.mi_swaps);
        ("utilization", J.Float i.mi_utilization);
        ("model", match i.mi_model with None -> J.Null | Some m -> J.Str m);
        ( "health",
          match i.mi_health with None -> J.Null | Some hs -> health_stat_json hs
        );
      ]
  in
  J.Obj
    [
      ("seed", J.Int r.mt_cfg.mt_seed);
      ("requests", J.Int (List.length r.mt_outcomes));
      ("workers", J.Int r.mt_cfg.mt_workers);
      ("batch", J.Int r.mt_batch);
      ("queue_depth", J.Int r.mt_cfg.mt_queue_depth);
      ("arrival", J.Str (mt_arrival_to_string r));
      ("window_cycles", J.Int r.mt_resolved_window);
      ("dispatch_overhead_cycles", J.Int r.mt_cfg.mt_dispatch_overhead);
      ("swap_overhead_cycles", J.Int r.mt_cfg.mt_swap_overhead);
      ("placement", J.Str (placement_to_string r.mt_cfg.mt_placement));
      ("served", J.Int r.mt_served);
      ("shed_queue", J.Int r.mt_shed_queue);
      ("shed_slo", J.Int r.mt_shed_slo);
      ("swaps", J.Int r.mt_swaps);
      ("fail_open", J.Int r.mt_fail_open);
      ("service_cycles", percentiles_json r.mt_service);
      ("sojourn_cycles", percentiles_json r.mt_sojourn);
      ("makespan_cycles", J.Int r.mt_makespan);
      ("throughput_rps", J.Float r.mt_throughput_rps);
      ("classes", J.List (List.map class_json r.mt_class_stats));
      ("instances", J.List (List.map instance_json r.mt_instances));
      ("outcomes", J.List (List.map outcome_json r.mt_outcomes));
      ("metrics", Metrics.to_json r.mt_metrics);
    ]

(* --- rendering -------------------------------------------------------- *)

let arrival_to_string report =
  match report.r_config.arrival with
  | Closed -> "closed"
  | Poisson _ -> Printf.sprintf "poisson gap %d" report.r_mean_gap

(* The functional ledger: everything here is a pure function of the
   config seed (and the artifact), never of workers or jobs. Instance
   assignments, waits, makespan and throughput are deliberately absent. *)
let tally r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "htvm-serve-tally v2\n";
  Buffer.add_string buf
    (Printf.sprintf
       "seed %d requests %d arrival %s batch %d queue-depth %d window %d \
        input-mix %d\n"
       r.r_config.seed r.r_config.requests (arrival_to_string r)
       r.r_config.max_batch r.r_config.queue_depth r.r_window
       r.r_config.input_mix);
  Buffer.add_string buf
    (Printf.sprintf "plan %s retry-budget %d\n"
       (Fault.Plan.to_string r.r_config.plan)
       r.r_config.retry_budget);
  (* Health lines are conditional, like the slo footer: the resolved
     lifecycle config and the predicted-plane stats are pure functions
     of the config seed. *)
  (match r.r_health with
  | Some h ->
      let c = h.h_config in
      Buffer.add_string buf
        (Printf.sprintf
           "health threshold=%d probation=%d interval=%d cost=%d passes=%d \
            cap=%d fail-ppm=%d seed=%d\n"
           c.Health.fault_threshold c.Health.probation_window
           c.Health.probe_interval c.Health.probe_cost c.Health.pass_threshold
           c.Health.backoff_cap
           (int_of_float (c.Health.probe_fail_prob *. 1_000_000.))
           c.Health.probe_seed)
  | None -> ());
  List.iter
    (fun (req, o) ->
      Buffer.add_string buf
        (match o with
        | Served s ->
            Printf.sprintf
              "req %d served digest=%s service=%d pred-sojourn=%d faults=%d/%d \
               retries=%d\n"
              req.r_id s.o_digest s.o_service s.o_pred_sojourn s.o_detected
              s.o_silent s.o_retries
        | Rejected { o_window } ->
            Printf.sprintf "req %d rejected window=%d\n" req.r_id o_window
        | Aborted a ->
            Printf.sprintf "req %d aborted site=%s attempts=%d\n" req.r_id a.o_site
              a.o_attempts))
    r.r_outcomes;
  Buffer.add_string buf
    (Printf.sprintf "outcomes served=%d rejected=%d aborted=%d\n" r.r_served
       r.r_rejected r.r_aborted);
  (* Distinct-payload accounting: how much the input-mix pool collapsed
     the stream, and how many distinct answers it produced. A pure
     function of the seed, like every other tally line. *)
  let distinct xs = List.length (List.sort_uniq compare xs) in
  Buffer.add_string buf
    (Printf.sprintf "digests distinct-inputs=%d distinct-outputs=%d\n"
       (distinct (List.map (fun (req, _) -> req.r_input_seed) r.r_outcomes))
       (distinct
          (List.filter_map
             (function _, Served s -> Some s.o_digest | _ -> None)
             r.r_outcomes)));
  (* Predicted violations only: the observed count depends on the fleet
     shape and has no place in the functional ledger. *)
  (match r.r_slo with
  | Some s ->
      Buffer.add_string buf
        (Printf.sprintf "slo target=%d pred-violations=%d pred-violation-rate=%.4f\n"
           s.s_target s.s_pred_violations s.s_pred_violation_rate)
  | None -> ());
  (* Predicted plane only: observed fail-open and per-instance lifecycle
     stats move with the fleet shape and stay out of the ledger. *)
  (match r.r_health with
  | Some h ->
      Buffer.add_string buf
        (Printf.sprintf
           "health pred-state=%s transitions=%d readmissions=%d relapses=%d \
            probe-cycles=%d fail-open=%d shed=%d\n"
           (Health.state_label h.h_pred_state)
           h.h_pred_transitions h.h_pred_readmissions h.h_pred_relapses
           h.h_pred_probe_cycles h.h_pred_fail_open h.h_shed)
  | None -> ());
  pp_percentiles buf "service" r.r_service;
  Buffer.contents buf

let summary r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "served %d/%d requests (%d shed, %d aborted) on %d instance(s), %d \
        batch(es)\n"
       r.r_served r.r_config.requests r.r_rejected r.r_aborted r.r_config.workers
       (List.fold_left (fun acc i -> acc + i.i_batches) 0 r.r_instances));
  Buffer.add_string buf
    (Printf.sprintf "makespan %d cycles, throughput %.1f req/s, shed rate %.1f%%\n"
       r.r_makespan r.r_throughput_rps (100.0 *. r.r_shed_rate));
  if r.r_config.memoize then
    Buffer.add_string buf
      (Printf.sprintf "memoize: %d hit(s), %d distinct input(s) executed\n"
         r.r_memo_hits r.r_memo_misses);
  (match r.r_slo with
  | Some s ->
      Buffer.add_string buf
        (Printf.sprintf
           "slo %d cycles: %d predicted / %d observed violation(s), predicted \
            rate %.1f%%\n"
           s.s_target s.s_pred_violations s.s_observed_violations
           (100.0 *. s.s_pred_violation_rate))
  | None -> ());
  (match r.r_health with
  | Some h ->
      Buffer.add_string buf
        (Printf.sprintf
           "health: pred %s, %d readmission(s), %d relapse(s), %d probe \
            cycles, %d shed, %d pred / %d observed fail-open\n"
           (Health.state_label h.h_pred_state)
           h.h_pred_readmissions h.h_pred_relapses h.h_pred_probe_cycles
           h.h_shed h.h_pred_fail_open r.r_fail_open)
  | None -> ());
  pp_percentiles buf "service latency (cycles)" r.r_service;
  pp_percentiles buf "sojourn latency (cycles)" r.r_sojourn;
  List.iter
    (fun i ->
      Buffer.add_string buf
        (Printf.sprintf
           "instance %d: %d batch(es), %d served, %d aborted, busy %d cycles \
            (%.1f%% utilization), %d fault(s)%s%s\n"
           i.i_id i.i_batches i.i_served i.i_aborted i.i_busy
           (100.0 *. i.i_utilization) i.i_faults
           (match i.i_degraded_at with
           | None -> ""
           | Some 0 -> ", degraded from start"
           | Some t -> Printf.sprintf ", degraded at cycle %d" t)
           (match i.i_health with
           | None -> ""
           | Some hs ->
               Printf.sprintf ", health %s (%d readmission(s), %d probe cycles)"
                 (Health.state_label hs.hs_state)
                 hs.hs_readmissions hs.hs_probe_cycles)))
    r.r_instances;
  Buffer.contents buf

let to_json r =
  let outcome_json (req, o) =
    let base = [ ("id", J.Int req.r_id); ("arrival", J.Int req.r_arrival) ] in
    J.Obj
      (base
      @
      match o with
      | Served s ->
          [
            ("outcome", J.Str "served");
            ("instance", J.Int s.o_instance);
            ("batch", J.Int s.o_batch);
            ("start", J.Int s.o_start);
            ("finish", J.Int s.o_finish);
            ("service_cycles", J.Int s.o_service);
            ("pred_sojourn_cycles", J.Int s.o_pred_sojourn);
            ("wait_cycles", J.Int s.o_wait);
            ("digest", J.Str s.o_digest);
            ("faults_detected", J.Int s.o_detected);
            ("faults_silent", J.Int s.o_silent);
            ("retries", J.Int s.o_retries);
          ]
      | Rejected { o_window } ->
          [ ("outcome", J.Str "rejected"); ("window", J.Int o_window) ]
      | Aborted a ->
          [
            ("outcome", J.Str "aborted");
            ("instance", J.Int a.o_instance);
            ("batch", J.Int a.o_batch);
            ("site", J.Str a.o_site);
            ("attempts", J.Int a.o_attempts);
          ])
  in
  let instance_json i =
    J.Obj
      [
        ("id", J.Int i.i_id);
        ("batches", J.Int i.i_batches);
        ("served", J.Int i.i_served);
        ("aborted", J.Int i.i_aborted);
        ("busy_cycles", J.Int i.i_busy);
        ("utilization", J.Float i.i_utilization);
        ("faults", J.Int i.i_faults);
        ( "degraded_at",
          match i.i_degraded_at with None -> J.Null | Some t -> J.Int t );
        ( "health",
          match i.i_health with None -> J.Null | Some hs -> health_stat_json hs
        );
        ("dma_bytes_in", J.Int i.i_totals.Sim.Counters.dma_bytes_in);
        ("dma_bytes_out", J.Int i.i_totals.Sim.Counters.dma_bytes_out);
      ]
  in
  J.Obj
    [
      ("seed", J.Int r.r_config.seed);
      ("requests", J.Int r.r_config.requests);
      ("workers", J.Int r.r_config.workers);
      ("max_batch", J.Int r.r_config.max_batch);
      ("queue_depth", J.Int r.r_config.queue_depth);
      ("arrival", J.Str (arrival_to_string r));
      ("window_cycles", J.Int r.r_window);
      ("dispatch_overhead_cycles", J.Int r.r_config.dispatch_overhead);
      ("plan", J.Str (Fault.Plan.to_string r.r_config.plan));
      ("use_plan", J.Bool r.r_config.use_plan);
      ("input_mix", J.Int r.r_config.input_mix);
      ("memoize", J.Bool r.r_config.memoize);
      ("memo_hits", J.Int r.r_memo_hits);
      ("memo_misses", J.Int r.r_memo_misses);
      ("served", J.Int r.r_served);
      ("rejected", J.Int r.r_rejected);
      ("aborted", J.Int r.r_aborted);
      ("shed_rate", J.Float r.r_shed_rate);
      ("service_cycles", percentiles_json r.r_service);
      ("sojourn_cycles", percentiles_json r.r_sojourn);
      ("makespan_cycles", J.Int r.r_makespan);
      ("throughput_rps", J.Float r.r_throughput_rps);
      ( "slo",
        match r.r_slo with
        | None -> J.Null
        | Some s ->
            J.Obj
              [
                ("target_cycles", J.Int s.s_target);
                ("pred_violations", J.Int s.s_pred_violations);
                ("observed_violations", J.Int s.s_observed_violations);
                ("pred_violation_rate", J.Float s.s_pred_violation_rate);
              ] );
      ( "health",
        match r.r_health with
        | None -> J.Null
        | Some h ->
            J.Obj
              [
                ("pred_state", J.Str (Health.state_label h.h_pred_state));
                ("pred_transitions", J.Int h.h_pred_transitions);
                ("pred_readmissions", J.Int h.h_pred_readmissions);
                ("pred_relapses", J.Int h.h_pred_relapses);
                ("pred_probe_cycles", J.Int h.h_pred_probe_cycles);
                ("pred_fail_open", J.Int h.h_pred_fail_open);
                ("shed", J.Int h.h_shed);
                ( "probation_window",
                  J.Int h.h_config.Health.probation_window );
                ("probe_interval", J.Int h.h_config.Health.probe_interval);
                ("probe_cost", J.Int h.h_config.Health.probe_cost);
                ("backoff_cap", J.Int h.h_config.Health.backoff_cap);
              ] );
      ("fail_open", J.Int r.r_fail_open);
      ("instances", J.List (List.map instance_json r.r_instances));
      ("outcomes", J.List (List.map outcome_json r.r_outcomes));
      ("metrics", Metrics.to_json r.r_metrics);
    ]
