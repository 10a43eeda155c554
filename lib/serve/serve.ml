(* Batched inference serving over a simulated DIANA fleet.

   One serving engine, two front ends. [run] serves one compiled model to
   a single request population; [mt_run] hosts several models behind one
   fleet for weighted request classes with per-class SLOs. Each front end
   owns only what really differs: its validation and error contract
   ([run] raises, [mt_run] returns a typed [mt_error]), request
   generation (the single-tenant input-mix pool draws no class, the
   multi-tenant stream draws one per request, so the two RNG streams stay
   separate), and the projection into its public report, metric names,
   trace event names and tally format. Everything after generation is
   the private [serve_engine] below, so a scheduling fix lands once.

   The engine is split so its determinism guarantee is structural rather
   than accidental:

   1. Admission is a pure function of the arrival stream: the
      per-window ingress cap sheds from arrivals alone — never from how
      fast the fleet drains.
   2. Execution is a pure function of the request: each request runs on
      a fresh simulated machine under its own fault session (seed
      derived from plan seed + request id), fanned out over a Util.Pool
      whose map is order-preserving. Outputs, service cycles and fault
      tallies cannot depend on routing, fleet size or host parallelism.
   3. Batch assembly precedes routing: batches, predicted sojourns, SLO
      sheds and the autotuned batch size come from a queueing-free model
      of the batch timeline that never sees the fleet.
   4. Scheduling is plain arithmetic over the execution records:
      placement, earliest-free healthy routing, hot swaps, per-instance
      clocks, degradation bookkeeping and the trace all happen on the
      submitting domain. Only this layer sees the worker count, and only
      serving metrics (throughput, waits, utilization) flow out of it —
      the functional tallies are assembled from layers 1 to 3.

   The health lifecycle (lib/health) keeps that split by running on two
   planes, mirroring the predicted/observed SLO accounting:

   - The *predicted* plane (single-tenant) is one logical Health.t
     advanced along the queueing-free batch timeline (window closes,
     dispatch overheads, exact service cycles). It never sees the fleet
     shape, so the health-aware admission cap, the health-shed set, the
     predicted fail-open count, readmission totals and every htvm_health_*
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
  h_config : Health.config;  (* resolved: autos filled from the service cycles *)
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

(* --- multi-tenant types ----------------------------------------------- *)

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

(* Typed errors, shared by both front ends: [mt_run] returns them; the
   single-tenant [validate] diagnoses config violations with them, while
   [run] itself keeps its raising contract for programmatic misuse. *)
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

(* --- execution -------------------------------------------------------- *)

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

let service = function Done d -> d.e_service | Abort _ -> 0
let fault_count = function
  | Done d -> d.e_detected + d.e_silent
  | Abort a -> a.a_detected + a.a_silent

(* --- the engine -------------------------------------------------------

   Everything after request generation, shared by both front ends: a
   front end hands over its requests in arrival order (ids dense from 0,
   [q_class] indexing [classes]) and the knobs below, and projects the
   result into its own report. *)

(* The front ends' trace vocabularies: event names and args are part of
   their pinned output. *)
type style = Single | Multi

type engine = {
  e_style : style;
  e_workers : int;
  e_queue_depth : int;
  e_window : int;  (* resolved dispatch window; 0 = closed loop *)
  e_max_batch : int;  (* 0 = autotune *)
  e_dispatch_overhead : int;
  e_swap_overhead : int;
  e_placement : placement;
  e_jobs : int;
  e_use_plan : bool;
  e_faults : (Fault.Plan.t * int) option;
      (* (plan, retry budget): per-request fault sessions, and batch fault
         counts fed to the observed health plane. [None] is the
         fault-free multi-tenant path, whose machines move only on their
         boot flag and their probe streams. *)
  e_memoize : bool;
  e_predict : bool;  (* run the predicted health plane (with [e_health]) *)
  e_degrade_after : int option;
  e_degraded : int list;
  e_health : Health.config option;  (* resolved *)
}

let execute e m (q : mt_request) =
  let inputs = Models.Zoo.random_input ~seed:q.q_input_seed m.m_graph in
  let session =
    match e.e_faults with
    | Some (plan, _) when not (Fault.Plan.is_empty plan) ->
        Some (Fault.Session.create (request_plan plan q.q_id))
    | _ -> None
  in
  let fault_stats () =
    match session with
    | None -> (0, 0, 0)
    | Some s ->
        let st = Fault.Session.stats s in
        (st.Fault.Session.detected, st.Fault.Session.silent, st.Fault.Session.retries)
  in
  match
    C.run ?faults:session ?retry_budget:(Option.map snd e.e_faults)
      ~use_plan:e.e_use_plan m.m_artifact ~inputs
  with
  | out, report ->
      let detected, silent, retries = fault_stats () in
      Done
        {
          e_digest = Tensor.digest out;
          e_service = C.full_cycles report;
          e_detected = detected;
          e_silent = silent;
          e_retries = retries;
          e_totals = report.Sim.Machine.totals;
        }
  | exception Fault.Session.Unrecovered { site; attempts } ->
      let detected, silent, _ = fault_stats () in
      Abort
        { a_site = site; a_attempts = attempts; a_detected = detected; a_silent = silent }

type instance = {
  id : int;
  mutable free_at : int;
  mutable busy : int;  (* batch cycles plus observed-plane probe cycles *)
  mutable served : int;
  mutable aborted : int;
  mutable batches : int;
  mutable faults : int;
  mutable swaps : int;
  mutable degraded_at : int option;
  mutable probe_cyc : int;  (* observed-plane probe cycles charged *)
  mutable loaded : int option;  (* resident model *)
  hm : Health.t option;  (* observed-plane machine (health mode only) *)
  totals : Sim.Counters.t;
}

let healthy_at inst t =
  match inst.hm with
  | Some m -> Health.eligible m
  | None -> ( match inst.degraded_at with None -> true | Some d -> t < d)

(* Process an instance's pending health events (cooldown expiry, probes
   — all scheduled at or before [now], so they never delay a batch
   start) and charge the probe cycles to it. *)
let advance_health inst now =
  match inst.hm with
  | None -> ()
  | Some m ->
      let pc = Health.advance m ~now in
      inst.busy <- inst.busy + pc;
      inst.probe_cyc <- inst.probe_cyc + pc

(* Earliest-free eligible member of [pool], lowest id on ties. Falls
   open to the whole pool when every member is out of the rotation: a
   fully degraded pool keeps serving rather than shedding everything.
   The second component reports that fail-open. *)
let route pool t =
  let eligible = List.filter (fun i -> healthy_at i t) pool in
  let fail_open = eligible = [] in
  let pool = if fail_open then pool else eligible in
  ( List.fold_left
      (fun best i -> if i.free_at < best.free_at then i else best)
      (List.hd pool) (List.tl pool),
    fail_open )

let window_of ~window arrival = if window > 0 then arrival / window else 0
let window_close ~window w = if window > 0 then (w + 1) * window else 0

(* Fold [f] over [xs] per window, windows in first-seen order — oldest
   first for anything in arrival order. *)
let fold_windows window_of f init xs =
  let tbl = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun x ->
      let w = window_of x in
      match Hashtbl.find_opt tbl w with
      | Some cell -> cell := f !cell x
      | None ->
          Hashtbl.add tbl w (ref (f init x));
          order := w :: !order)
    xs;
  List.rev_map (fun w -> (w, !(Hashtbl.find tbl w))) !order

let rec split_at n = function
  | x :: rest when n > 0 ->
      let kept, dropped = split_at (n - 1) rest in
      (x :: kept, dropped)
  | rest -> ([], rest)

(* What became of one request. [f_start] is the cycle its own service
   began; [f_pred] its predicted (queueing-free) sojourn. *)
type fate =
  | Ran of { f_instance : int; f_batch : int; f_start : int; f_pred : int; f_exec : exec }
  | Shed_queue of int  (* window: the ingress cap was full *)
  | Shed_health of int  (* window: health-aware admission *)
  | Shed_slo of int  (* the predicted sojourn that broke the class SLO *)

(* One committed batch assembly. *)
type assembly = {
  a_size : int;
  a_batches : (int * int * (mt_request * exec * int) list) list;
      (* (window, model, (request, execution, predicted sojourn)) in
         dispatch order *)
  a_slo_shed : (mt_request * int) list;
  a_health_shed : (int * mt_request) list;
  a_pred : Health.t option;
  a_pred_fail_open : int;
}

type served = {
  x_fates : fate array;  (* by request id *)
  x_instances : instance array;
  x_batch_size : int;
  x_batches : int;
  x_fail_open : int;  (* observed: batches dispatched with no eligible instance *)
  x_pred : Health.t option;  (* predicted plane, if it ran *)
  x_pred_fail_open : int;
  x_health_shed : int;
  x_memo_hits : int;
  x_memo_misses : int;
  x_samples : (int * float list) list;
      (* fleet state at each window close: in flight, latest free cycle,
         served so far, running throughput *)
  x_served : int;
  x_service : percentiles;
  x_sojourn : percentiles;
  x_makespan : int;
  x_throughput : float;
}

let utilization x busy =
  if x.x_makespan = 0 then 0.0 else float_of_int busy /. float_of_int x.x_makespan

let serve_engine ?trace e ~models ~classes requests =
  let n_models = Array.length models in
  let model_of q = fst classes.(q.q_class) in
  let single = e.e_style = Single in
  let open_loop = e.e_window > 0 in
  let fates = Array.make (List.length requests) None in
  let shed_event q w name =
    Trace.interval trace ~track:"serve" ~cat:"serve" ~ts:q.q_arrival ~dur:0
      ~args:[ ("request", J.Int q.q_id); ("window", J.Int w) ]
      name
  in
  let queue_sample q n =
    if single then
      Trace.counter trace ~track:"queue" ~cat:"serve" ~ts:q.q_arrival ~value:n
        "queue_depth"
  in
  (* Admission: per dispatch window, the first [queue_depth] arrivals
     are buffered, the rest shed. Requests are already in arrival order
     (ids break ties), so one left-to-right scan decides. The closed loop
     never sheds: its generator only offers what it wants served. *)
  let admitted =
    if not open_loop then List.map (fun q -> (0, q)) requests
    else
      let in_window = Hashtbl.create 16 in
      List.filter_map
        (fun q ->
          let w = q.q_arrival / e.e_window in
          let n = Option.value ~default:0 (Hashtbl.find_opt in_window w) in
          if n >= e.e_queue_depth then begin
            fates.(q.q_id) <- Some (Shed_queue w);
            shed_event q w (if single then "shed" else "shed-queue");
            (* Re-sample the occupancy at the shed point so the counter
               track shows the plateau pressing against the cap. *)
            queue_sample q n;
            None
          end
          else begin
            Hashtbl.replace in_window w (n + 1);
            queue_sample q (n + 1);
            Some (w, q)
          end)
        requests
  in
  (* Execution: every admitted request on the pool, before batch
     assembly — SLO shedding needs exact service cycles. *)
  let execute_all items =
    Util.Pool.with_pool ~jobs:e.e_jobs (fun pool ->
        Util.Pool.map pool (fun (_, q) -> execute e models.(model_of q) q) items)
  in
  let memo_hits = ref 0 and memo_misses = ref 0 in
  let execs =
    if not e.e_memoize then execute_all admitted
    else begin
      (* Memoization: dedupe admitted requests by input digest before the
         fan-out, execute one representative per distinct input, share its
         result. Sound only for input-pure executions, which the front end
         enforces (no fault plan), so outputs are unchanged — only hit/miss
         telemetry and wall time move. A key is a pure function of the
         model and input seed, so it is computed once per distinct pair. *)
      let keys = Hashtbl.create 16 in
      let input_key q =
        let m = model_of q in
        match Hashtbl.find_opt keys (m, q.q_input_seed) with
        | Some key -> key
        | None ->
            let inputs =
              Models.Zoo.random_input ~seed:q.q_input_seed models.(m).m_graph
            in
            let key =
              String.concat "+"
                (string_of_int m
                :: List.map (fun (n, t) -> n ^ ":" ^ Tensor.digest t) inputs)
            in
            Hashtbl.add keys (m, q.q_input_seed) key;
            key
      in
      let item_keys = List.map (fun (_, q) -> input_key q) admitted in
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
              Some item
            end)
          (List.combine admitted item_keys)
      in
      let table = Hashtbl.create 16 in
      List.iter2
        (fun (_, q) exec -> Hashtbl.replace table (input_key q) exec)
        reps (execute_all reps);
      List.map (Hashtbl.find table) item_keys
    end
  in
  let windows =
    fold_windows
      (fun ((w, _), _) -> w)
      (fun acc item -> item :: acc)
      [] (List.combine admitted execs)
    |> List.map (fun (w, items) -> (w, List.rev items))
  in
  let swap_pred = match e.e_placement with Swap -> e.e_swap_overhead | Pinned -> 0 in
  (* Batch assembly at one batch size. Per window, in arrival order, each
     request joins its model's open batch (a batch executes on one
     artifact), predicted to dispatch the moment its window closes onto
     an idle machine: dispatch overhead, one cold load under [Swap], then
     the in-batch service prefix. A request whose predicted sojourn
     breaks its class SLO is shed and frees its slot for later arrivals.
     Batch assembly precedes routing, so this pass never sees the fleet.

     The predicted health plane rides the same pass: one logical machine
     advanced to each window open — while it is out of the rotation the
     ingress cap halves and the excess is shed — and to each predicted
     dispatch (an ineligible dispatch is a predicted fail-open), then fed
     the batch's faults at its predicted finish. The closed loop has no
     windows, so there the machine advances along the serialized batch
     cursor instead; predicted sojourns keep their zero-based timing.

     Pure (a fresh predicted machine per call), so the autotuner can
     score several sizes before one is committed. *)
  let assemble max_batch =
    let pred =
      if not e.e_predict then None
      else
        Option.map
          (fun hc ->
            Health.create ~degraded_at_start:(e.e_degraded <> []) hc ~instance:(-1))
          e.e_health
    in
    let batches = ref [] and slo_shed = ref [] and health_shed = ref [] in
    let pred_fail_open = ref 0 and pclock = ref 0 in
    List.iter
      (fun (w, items) ->
        let dispatch_t = window_close ~window:e.e_window w in
        let items =
          match pred with
          | Some pm when open_loop ->
              ignore (Health.advance pm ~now:(w * e.e_window));
              if Health.eligible pm then items
              else begin
                let kept, dropped = split_at (max 1 (e.e_queue_depth / 2)) items in
                List.iter
                  (fun ((_, q), _) -> health_shed := (w, q) :: !health_shed)
                  dropped;
                kept
              end
          | _ -> items
        in
        let base = dispatch_t + e.e_dispatch_overhead + swap_pred in
        let fill = Array.make n_models 0 and cursor = Array.make n_models 0 in
        let current = Array.make n_models [] and closed = ref [] in
        let flush m =
          if current.(m) <> [] then closed := (w, m, List.rev current.(m)) :: !closed;
          current.(m) <- [];
          fill.(m) <- 0
        in
        List.iter
          (fun ((_, q), exec) ->
            let m = model_of q in
            let finish = (if fill.(m) = 0 then base else cursor.(m)) + service exec in
            let sojourn = finish - q.q_arrival in
            match snd classes.(q.q_class) with
            | Some slo when sojourn > slo -> slo_shed := (q, sojourn) :: !slo_shed
            | _ ->
                current.(m) <- (q, exec, sojourn) :: current.(m);
                cursor.(m) <- finish;
                fill.(m) <- fill.(m) + 1;
                if fill.(m) >= max_batch then flush m)
          items;
        for m = 0 to n_models - 1 do
          flush m
        done;
        let wbatches = List.rev !closed in
        Option.iter
          (fun pm ->
            List.iter
              (fun (_, _, b) ->
                let pdispatch = if open_loop then dispatch_t else !pclock in
                ignore (Health.advance pm ~now:pdispatch);
                if not (Health.eligible pm) then incr pred_fail_open;
                let pfinish =
                  List.fold_left
                    (fun acc (_, x, _) -> acc + service x)
                    (pdispatch + e.e_dispatch_overhead + swap_pred)
                    b
                in
                Health.observe_faults pm ~now:pfinish
                  (List.fold_left (fun acc (_, x, _) -> acc + fault_count x) 0 b);
                pclock := pfinish)
              wbatches)
          pred;
        batches := List.rev_append wbatches !batches)
      windows;
    {
      a_size = max_batch;
      a_batches = List.rev !batches;
      a_slo_shed = List.rev !slo_shed;
      a_health_shed = List.rev !health_shed;
      a_pred = pred;
      a_pred_fail_open = !pred_fail_open;
    }
  in
  (* Batch autotune ([e_max_batch = 0]): score candidate sizes on the
     predicted schedule — fewest sheds first, then lowest predicted total
     cost, then the smaller size. The cost is total work (each batch pays
     the dispatch overhead and, under [Swap], one cold load, which wide
     batches amortize) plus the summed predicted sojourns (which wide
     batches inflate), so a dispatch overhead dwarfing per-request service
     pushes the tuner toward wide batches and a cheap dispatch toward
     narrow ones. A pure function of the arrival stream, so the choice is
     workers/jobs-invariant like everything else in the tally. *)
  let a =
    if e.e_max_batch > 0 then assemble e.e_max_batch
    else
      let cost a =
        let total =
          List.fold_left
            (fun acc (_, _, items) ->
              List.fold_left
                (fun acc (_, x, sojourn) -> acc + service x + sojourn)
                (acc + e.e_dispatch_overhead + swap_pred)
                items)
            0 a.a_batches
        in
        (List.length a.a_slo_shed + List.length a.a_health_shed, total, a.a_size)
      in
      List.fold_left
        (fun best b ->
          let a = assemble b in
          if compare (cost a) (cost best) < 0 then a else best)
        (assemble 1) [ 2; 4; 8; 16; 32 ]
  in
  List.iter (fun (q, sojourn) -> fates.(q.q_id) <- Some (Shed_slo sojourn)) a.a_slo_shed;
  List.iter
    (fun (w, q) ->
      fates.(q.q_id) <- Some (Shed_health w);
      shed_event q w "health-shed")
    a.a_health_shed;
  (* Scheduling: the only fleet-shaped pass. Pinned placement maps
     instance i to model (i mod n_models); Swap routes anywhere and
     charges [e_swap_overhead] whenever the resident model changes. *)
  let instances =
    Array.init e.e_workers (fun id ->
        let boot_degraded = List.mem id e.e_degraded in
        {
          id;
          free_at = 0;
          busy = 0;
          served = 0;
          aborted = 0;
          batches = 0;
          faults = 0;
          swaps = 0;
          degraded_at =
            (* with health, filled after the run from the machine's log *)
            (if boot_degraded && e.e_health = None then Some 0 else None);
          probe_cyc = 0;
          loaded =
            (match e.e_placement with Pinned -> Some (id mod n_models) | Swap -> None);
          hm =
            Option.map
              (fun hc -> Health.create ~degraded_at_start:boot_degraded hc ~instance:id)
              e.e_health;
          totals = Sim.Counters.create ();
        })
  in
  let pools =
    Array.init n_models (fun m ->
        List.filter
          (fun i -> e.e_placement = Swap || i.id mod n_models = m)
          (Array.to_list instances))
  in
  let freq_hz =
    float_of_int models.(0).m_artifact.C.cfg.C.platform.Arch.Platform.freq_mhz *. 1.0e6
  in
  let throughput served cycles =
    if cycles = 0 then 0.0 else float_of_int served /. (float_of_int cycles /. freq_hz)
  in
  (* Fleet state when a dispatch window closes (batches arrive in window
     order, so a window change means the previous one is fully
     scheduled). *)
  let served_so_far = ref 0 and samples = ref [] in
  let sample w =
    let free_max = Array.fold_left (fun acc i -> max acc i.free_at) 0 instances in
    let ts = if open_loop then window_close ~window:e.e_window w else free_max in
    let in_flight =
      Array.fold_left (fun acc i -> if i.free_at > ts then acc + 1 else acc) 0 instances
    in
    samples :=
      ( ts,
        [ float_of_int in_flight; float_of_int free_max; float_of_int !served_so_far;
          throughput !served_so_far free_max ] )
      :: !samples
  in
  let fail_open = ref 0 and last_window = ref None in
  List.iteri
    (fun batch (w, m, items) ->
      (match !last_window with Some prev when prev <> w -> sample prev | _ -> ());
      last_window := Some w;
      let pool = pools.(m) in
      let dispatch_t =
        if open_loop then window_close ~window:e.e_window w
        else
          (* backlog: the router hands out the next batch as soon as any
             pool member frees *)
          List.fold_left (fun acc i -> min acc i.free_at) max_int pool
      in
      (* Lifecycles catch up to the dispatch instant before routing. *)
      List.iter (fun i -> advance_health i dispatch_t) pool;
      let inst, failed_open = route pool dispatch_t in
      if failed_open then incr fail_open;
      let start = max dispatch_t inst.free_at in
      (* A different resident model (or none yet) costs one reload;
         unreachable under Pinned, whose pools match the batch's model. *)
      let swap =
        if inst.loaded = Some m then 0
        else begin
          inst.swaps <- inst.swaps + 1;
          inst.loaded <- Some m;
          e.e_swap_overhead
        end
      in
      let cursor = ref (start + e.e_dispatch_overhead + swap) in
      let batch_faults = ref 0 in
      List.iter
        (fun (q, exec, sojourn) ->
          fates.(q.q_id) <-
            Some
              (Ran
                 {
                   f_instance = inst.id;
                   f_batch = batch;
                   f_start = !cursor;
                   f_pred = sojourn;
                   f_exec = exec;
                 });
          inst.faults <- inst.faults + fault_count exec;
          batch_faults := !batch_faults + fault_count exec;
          match exec with
          | Done d ->
              cursor := !cursor + d.e_service;
              incr served_so_far;
              inst.served <- inst.served + 1;
              Sim.Counters.add inst.totals d.e_totals
          | Abort _ -> inst.aborted <- inst.aborted + 1)
        items;
      let finish = !cursor in
      let n = List.length items in
      let track = Printf.sprintf "instance %d" inst.id in
      (match e.e_style with
      | Single ->
          Trace.interval trace ~track ~cat:"serve" ~ts:start ~dur:(finish - start)
            ~args:[ ("batch", J.Int batch); ("window", J.Int w); ("requests", J.Int n) ]
            (Printf.sprintf "batch %d (%d req)" batch n)
      | Multi ->
          let name = models.(m).m_name in
          Trace.interval trace ~track ~cat:"mtserve" ~ts:start ~dur:(finish - start)
            ~args:[ ("batch", J.Int batch); ("model", J.Str name); ("requests", J.Int n) ]
            (Printf.sprintf "batch %d [%s] (%d req)" batch name n));
      inst.free_at <- finish;
      inst.busy <- inst.busy + (finish - start);
      inst.batches <- inst.batches + 1;
      match inst.hm with
      | Some hm ->
          if e.e_faults <> None then Health.observe_faults hm ~now:finish !batch_faults
      | None -> (
          match (e.e_degrade_after, inst.degraded_at) with
          | Some threshold, None when inst.faults >= threshold ->
              inst.degraded_at <- Some finish;
              Trace.interval trace ~track ~cat:"serve" ~ts:finish ~dur:0
                ~args:[ ("faults", J.Int inst.faults) ]
                "degraded"
          | _ -> ()))
    a.a_batches;
  Option.iter sample !last_window;
  let makespan = Array.fold_left (fun acc i -> max acc i.free_at) 0 instances in
  (* Drain the observed plane to the end of the run: probes scheduled
     before the last completion still land, then each machine's log
     yields the instance's first-degradation cycle (and, single-tenant,
     the trace events). *)
  if e.e_health <> None then
    Array.iter
      (fun i ->
        advance_health i makespan;
        Option.iter
          (fun m ->
            i.degraded_at <-
              List.find_opt
                (fun tr -> tr.Health.tr_to = Health.Degraded)
                (Health.transitions m)
              |> Option.map (fun tr -> tr.Health.tr_at);
            if single then
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
                    (Printf.sprintf "health %s" (Health.state_label tr.Health.tr_to)))
                (Health.transitions m))
          i.hm)
      instances;
  let fates = Array.map Option.get fates (* every request ran or was shed *) in
  let services, sojourns =
    List.fold_left
      (fun (sv, sj) q ->
        match fates.(q.q_id) with
        | Ran { f_start; f_exec = Done d; _ } ->
            (d.e_service :: sv, (f_start + d.e_service - q.q_arrival) :: sj)
        | _ -> (sv, sj))
      ([], []) requests
  in
  let served = List.length services in
  {
    x_fates = fates;
    x_instances = instances;
    x_batch_size = a.a_size;
    x_batches = List.length a.a_batches;
    x_fail_open = !fail_open;
    x_pred = a.a_pred;
    x_pred_fail_open = a.a_pred_fail_open;
    x_health_shed = List.length a.a_health_shed;
    x_memo_hits = !memo_hits;
    x_memo_misses = !memo_misses;
    x_samples = List.rev !samples;
    x_served = served;
    x_service = percentiles_of services;
    x_sojourn = percentiles_of sojourns;
    x_makespan = makespan;
    x_throughput = throughput served makespan;
  }

(* --- validation --------------------------------------------------------- *)

(* Fill a health config's auto fields from the fault-free service
   cycles: probation two services, probes every quarter service costing
   a tenth, escalation capped at 8 probation windows. *)
let resolve_health hc ~service =
  let probation =
    if hc.Health.probation_window > 0 then hc.Health.probation_window
    else 2 * service
  in
  let resolved =
    {
      hc with
      Health.probation_window = probation;
      probe_interval =
        (if hc.Health.probe_interval >= 0 then hc.Health.probe_interval
         else max 1 (service / 4));
      probe_cost =
        (if hc.Health.probe_cost > 0 then hc.Health.probe_cost
         else max 1 (service / 10));
      backoff_cap =
        (if hc.Health.backoff_cap > 0 then hc.Health.backoff_cap
         else 8 * probation);
    }
  in
  match Health.validate resolved with
  | Ok () -> Ok resolved
  | Error msg -> Error msg

(* Each auto sentinel is one value, 0 (-1 for the probe interval);
   below it is a violation, not another spelling of auto. The rest must
   hold for the smallest service any plan can have (one cycle), where
   every auto field resolves to its most lenient value, so all that is
   left to the plan is an explicit cap below an auto probation window. *)
let health_violation hc =
  if hc.Health.probation_window < 0 then
    Some "health: probation_window must be >= 0 (0 = auto)"
  else if hc.Health.probe_interval < -1 then
    Some "health: probe_interval must be >= -1 (-1 = auto)"
  else if hc.Health.probe_cost < 0 then
    Some "health: probe_cost must be >= 0 (0 = auto)"
  else if hc.Health.backoff_cap < 0 then
    Some "health: backoff_cap must be >= 0 (0 = auto)"
  else
    match resolve_health hc ~service:1 with Ok _ -> None | Error msg -> Some msg

(* The fleet checks both front ends share: the first violation, if any.
   Degraded ids must name real instances, once each — out-of-range or
   duplicate ids always indicate a config bug (a typo'd fleet size, a
   doubled flag). *)
let fleet_violation ~workers ~queue_depth ~requests ~mean_gap ~window
    ~dispatch_overhead ~degraded ~health =
  if workers < 1 then Some "workers must be >= 1"
  else if queue_depth < 1 then Some "queue_depth must be >= 1"
  else if requests < 0 then Some "requests must be >= 0"
  else if mean_gap < 0 then Some "mean_gap must be >= 0 (0 = auto)"
  else if window < 0 then Some "window must be >= 0 (0 = auto)"
  else if dispatch_overhead < 0 then Some "dispatch_overhead must be >= 0"
  else
    match List.find_opt (fun id -> id < 0 || id >= workers) degraded with
    | Some id ->
        Some (Printf.sprintf "degraded instance id %d out of range [0, %d)" id workers)
    | None ->
        if List.length (List.sort_uniq compare degraded) <> List.length degraded then
          Some "degraded instance ids must be distinct"
        else Option.bind health health_violation

(* Single-tenant validation; [run] raises [Invalid_argument] with the
   same message, its historical contract. The health lifecycle replaces
   the one-way degrade_after flag (the two would fight over instance
   eligibility), and memoization is sound only for input-pure
   executions, which per-request fault sessions are not. *)
let validate cfg =
  let bad msg = Error (Bad_config ("Serve.run: " ^ msg)) in
  match
    fleet_violation ~workers:cfg.workers ~queue_depth:cfg.queue_depth
      ~requests:cfg.requests
      ~mean_gap:(match cfg.arrival with Poisson { mean_gap } -> mean_gap | Closed -> 0)
      ~window:cfg.window ~dispatch_overhead:cfg.dispatch_overhead
      ~degraded:cfg.degraded_instances ~health:cfg.health
  with
  | Some msg -> bad msg
  | None ->
      if cfg.max_batch < 1 then bad "max_batch must be >= 1"
      else if cfg.retry_budget < 0 then bad "retry_budget must be >= 0"
      else if (match cfg.degrade_after with Some n -> n < 1 | None -> false) then
        bad "degrade_after must be >= 1"
      else if (match cfg.slo_sojourn with Some t -> t < 1 | None -> false) then
        bad "slo_sojourn must be >= 1"
      else if cfg.input_mix < 0 then bad "input_mix must be >= 0"
      else if cfg.health <> None && cfg.degrade_after <> None then
        bad "health and degrade_after are mutually exclusive"
      else if cfg.memoize && not (Fault.Plan.is_empty cfg.plan) then
        bad "memoize requires an empty fault plan"
      else Ok ()

(* --- auto resolution --------------------------------------------------- *)

(* Auto values derive from a request's fault-free service cycles, read
   from the plan ({!C.service_cycles}), the slowest model winning: a
   pure function of the models — never of the fleet size or the seed,
   so auto values never leak the worker count into the arrival
   process. Nothing is executed. *)
let service_cycles models =
  List.fold_left (fun acc m -> max acc (C.service_cycles m.m_artifact)) 1 models

(* 0 means auto: the mean gap is half a service (roughly 2x one
   instance's capacity), the window one service. *)
let auto_gap service gap = if gap > 0 then gap else max 1 (service / 2)
let auto_window service window = if window > 0 then window else service

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

let cycle_buckets =
  [ 1_000; 3_000; 10_000; 30_000; 100_000; 300_000; 1_000_000; 3_000_000; 10_000_000 ]

(* Register an instrument and record its value at once: a front end
   registers everything in one pass after the run, and registration
   order is exposition order. *)
let add_counter reg ?track ?labels name help n =
  Metrics.inc (Metrics.counter reg ?track ?labels ~help name) n

let set_gauge reg ?track ?labels name help v =
  Metrics.set_int (Metrics.gauge reg ?track ?labels ~help name) v

(* The fleet-wide sched-track gauges both reports carry, under each
   front end's metric prefix. *)
let fleet_gauges reg prefix x =
  set_gauge reg ~track:Metrics.Sched (prefix ^ "_makespan_cycles")
    "End-to-end makespan cycles." x.x_makespan;
  Metrics.set
    (Metrics.gauge reg ~track:Metrics.Sched
       ~help:"Served requests per second of simulated time."
       (prefix ^ "_throughput_rps"))
    x.x_throughput

(* --- single-tenant front end ------------------------------------------ *)

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
     after the main draw, so arrivals are identical at any mix. A draw is
     at most 1_000_000, so [draw mod k] never reaches past the pool's
     first 1_000_001 seeds: only those are generated, whatever k is. *)
  let pool =
    if cfg.input_mix <= 0 then [||]
    else
      let prng = Util.Rng.create (cfg.seed + 999_983) in
      Array.init (min cfg.input_mix 1_000_001) (fun _ -> Util.Rng.int_in prng 1 1_000_000)
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

let run ?trace ?metrics cfg artifact ~graph =
  (match validate cfg with Ok () -> () | Error e -> invalid_arg (mt_error_to_string e));
  let model = { m_name = "main"; m_artifact = artifact; m_graph = graph } in
  let service = service_cycles [ model ] in
  let mean_gap, window =
    match cfg.arrival with
    | Closed -> (0, 0)
    | Poisson { mean_gap } -> (auto_gap service mean_gap, auto_window service cfg.window)
  in
  let health_cfg =
    Option.map
      (fun hc ->
        match resolve_health hc ~service with
        | Ok resolved -> resolved
        | Error msg -> invalid_arg ("Serve.run: " ^ msg))
      cfg.health
  in
  let requests = generate cfg ~mean_gap in
  (* One model, one class without an SLO, every instance pinned to it. *)
  let x =
    serve_engine ?trace
      {
        e_style = Single;
        e_workers = cfg.workers;
        e_queue_depth = cfg.queue_depth;
        e_window = window;
        e_max_batch = cfg.max_batch;
        e_dispatch_overhead = cfg.dispatch_overhead;
        e_swap_overhead = 0;
        e_placement = Pinned;
        e_jobs = cfg.jobs;
        e_use_plan = cfg.use_plan;
        e_faults = Some (cfg.plan, cfg.retry_budget);
        e_memoize = cfg.memoize;
        e_predict = true;
        e_degrade_after = cfg.degrade_after;
        e_degraded = cfg.degraded_instances;
        e_health = health_cfg;
      }
      ~models:[| model |] ~classes:[| (0, None) |]
      (List.map
         (fun r ->
           {
             q_id = r.r_id;
             q_class = 0;
             q_input_seed = r.r_input_seed;
             q_arrival = r.r_arrival;
           })
         requests)
  in
  let outcomes =
    List.map
      (fun r ->
        ( r,
          match x.x_fates.(r.r_id) with
          | Ran { f_instance; f_batch; f_start; f_pred; f_exec = Done d } ->
              Served
                {
                  o_instance = f_instance;
                  o_batch = f_batch;
                  o_start = f_start;
                  o_finish = f_start + d.e_service;
                  o_service = d.e_service;
                  o_wait = f_start - r.r_arrival;
                  o_digest = d.e_digest;
                  o_detected = d.e_detected;
                  o_silent = d.e_silent;
                  o_retries = d.e_retries;
                  o_pred_sojourn = f_pred;
                }
          | Ran { f_instance; f_batch; f_exec = Abort a; _ } ->
              Aborted
                {
                  o_instance = f_instance;
                  o_batch = f_batch;
                  o_site = a.a_site;
                  o_attempts = a.a_attempts;
                }
          | Shed_queue w | Shed_health w -> Rejected { o_window = w }
          | Shed_slo _ -> assert false (* the single class has no SLO *) ))
      requests
  in
  let count p = List.length (List.filter (fun (_, o) -> p o) outcomes) in
  let rejected = count (function Rejected _ -> true | _ -> false) in
  let aborted = count (function Aborted _ -> true | _ -> false) in
  (* --- metrics. Registration order is exposition order; the run always
     records into a registry — the caller's (so a serve dump can carry
     the compile-side metrics too) or a private one. *)
  let reg = match metrics with Some r -> r | None -> Metrics.create () in
  let counter = add_counter reg in
  let histogram name help values =
    let h = Metrics.histogram reg ~buckets:cycle_buckets ~help name in
    List.iter (Metrics.observe h) values
  in
  (* Fault totals over every execution that reached a batch. *)
  let fault_total f =
    Array.fold_left
      (fun acc -> function Ran { f_exec; _ } -> acc + f f_exec | _ -> acc)
      0 x.x_fates
  in
  counter "htvm_serve_requests_total" "Requests generated from the seed." cfg.requests;
  counter "htvm_serve_admitted_total"
    "Requests admitted past the per-window ingress cap." (cfg.requests - rejected);
  counter "htvm_serve_shed_total" "Requests shed at admission." rejected;
  counter "htvm_serve_served_total" "Requests served to completion." x.x_served;
  counter "htvm_serve_aborted_total"
    "Requests aborted after exhausting the retry budget." aborted;
  counter "htvm_serve_faults_detected_total"
    "Detected faults across all request executions."
    (fault_total (function Done d -> d.e_detected | Abort a -> a.a_detected));
  counter "htvm_serve_faults_silent_total"
    "Silent corruptions across all request executions."
    (fault_total (function Done d -> d.e_silent | Abort a -> a.a_silent));
  counter "htvm_serve_retries_total" "Retries across all request executions."
    (fault_total (function
      | Done d -> d.e_retries
      | Abort a -> max 0 (a.a_attempts - 1)));
  counter "htvm_serve_memo_hits_total"
    "Admitted requests whose output was reused from an identical input."
    x.x_memo_hits;
  counter "htvm_serve_memo_misses_total"
    "Distinct inputs actually executed under memoization." x.x_memo_misses;
  histogram "htvm_serve_service_cycles"
    "Per-request service cycles on a dedicated machine."
    (List.filter_map
       (function _, Served { o_service; _ } -> Some o_service | _ -> None)
       outcomes);
  histogram "htvm_serve_pred_sojourn_cycles"
    "Predicted (queueing-free) sojourn cycles of served requests."
    (List.filter_map
       (function _, Served { o_pred_sojourn; _ } -> Some o_pred_sojourn | _ -> None)
       outcomes);
  (* Per-window admission + predicted-SLO rows, from outcomes alone: the
     data never saw the fleet. *)
  let violates p = match cfg.slo_sojourn with Some t -> p > t | None -> false in
  let rows =
    fold_windows
      (fun (r, _) -> window_of ~window r.r_arrival)
      (fun (arr, adm, shed, srv, viol) (_, o) ->
        match o with
        | Rejected _ -> (arr + 1, adm, shed + 1, srv, viol)
        | Aborted _ -> (arr + 1, adm + 1, shed, srv, viol)
        | Served s ->
            let viol = if violates s.o_pred_sojourn then viol + 1 else viol in
            (arr + 1, adm + 1, shed, srv + 1, viol))
      (0, 0, 0, 0, 0) outcomes
  in
  let pred_violations = List.fold_left (fun acc (_, (_, _, _, _, v)) -> acc + v) 0 rows in
  counter "htvm_serve_slo_pred_violations_total"
    "Served requests whose predicted sojourn exceeded the SLO target."
    pred_violations;
  let m_window =
    Metrics.series reg
      ~columns:
        [ "arrivals"; "admitted"; "shed"; "slo_pred_violations";
          "slo_pred_violation_rate" ]
      ~help:"Per dispatch window: admission and predicted-SLO accounting."
      "htvm_serve_window"
  in
  ignore
    (List.fold_left
       (fun (cum_srv, cum_viol) (w, (arr, adm, shed, srv, viol)) ->
         let cum_srv = cum_srv + srv and cum_viol = cum_viol + viol in
         let rate =
           if cum_srv = 0 then 0.0 else float_of_int cum_viol /. float_of_int cum_srv
         in
         Metrics.sample m_window ~ts:(window_close ~window w)
           [ float_of_int arr; float_of_int adm; float_of_int shed;
             float_of_int viol; rate ];
         (cum_srv, cum_viol))
       (0, 0) rows);
  let sim_totals = Sim.Counters.create () in
  Array.iter (fun i -> Sim.Counters.add sim_totals i.totals) x.x_instances;
  List.iter
    (fun (name, v) ->
      counter ("htvm_sim_" ^ name ^ "_total")
        ("Simulator counter " ^ name ^ " summed over served requests.")
        v)
    (Sim.Counters.fields sim_totals);
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
  counter ~track:Metrics.Sched "htvm_serve_slo_observed_violations_total"
    "Served requests whose observed sojourn exceeded the SLO target."
    observed_violations;
  let m_sched_window =
    Metrics.series reg ~track:Metrics.Sched
      ~columns:[ "in_flight"; "free_max"; "served_cum"; "throughput_rps" ]
      ~help:"Fleet state at each dispatch-window close." "htvm_sched_window"
  in
  List.iter (fun (ts, row) -> Metrics.sample m_sched_window ~ts row) x.x_samples;
  (* Fail-open accounting is split like the SLO counters: the dedicated
     htvm_serve_fail_open_total counts predicted-plane fail-opens
     (cycles track, worker-invariant, 0 without health); the observed
     fleet-shaped count lands on the sched track. *)
  counter "htvm_serve_fail_open_total"
    "Batches predicted to dispatch with no healthy capacity \
     (fail-open), on the predicted health plane."
    x.x_pred_fail_open;
  counter "htvm_serve_health_shed_total"
    "Requests shed by health-aware admission while the predicted \
     plane was out of the rotation."
    x.x_health_shed;
  counter ~track:Metrics.Sched "htvm_sched_fail_open_total"
    "Scheduled batches dispatched with every instance out of the \
     healthy rotation (fail-open)."
    x.x_fail_open;
  let pair_labels (f, t) =
    [ ("from", Health.state_label f); ("to", Health.state_label t) ]
  in
  Option.iter
    (fun pm ->
      List.iter
        (fun (pair, n) ->
          counter ~labels:(pair_labels pair)
            "htvm_health_pred_transitions_total"
            "Predicted-plane health transitions by (from, to)." n)
        (Health.transition_counts pm);
      counter "htvm_health_pred_readmissions_total"
        "Predicted-plane readmissions to the healthy rotation." (Health.readmissions pm);
      counter "htvm_health_pred_relapses_total"
        "Predicted-plane entries into the degraded state." (Health.relapses pm);
      counter "htvm_health_pred_probe_cycles_total"
        "Predicted-plane cycles spent on health-check probes." (Health.probe_cycles pm);
      List.iter
        (fun pair ->
          counter ~track:Metrics.Sched ~labels:(pair_labels pair)
            "htvm_health_observed_transitions_total"
            "Observed per-instance health transitions by (from, \
             to), summed over the fleet."
            (Array.fold_left
               (fun acc i ->
                 match i.hm with
                 | None -> acc
                 | Some m -> acc + List.assoc pair (Health.transition_counts m))
               0 x.x_instances))
        Health.legal_pairs)
    x.x_pred;
  Array.iter
    (fun i ->
      let labels = [ ("instance", string_of_int i.id) ] in
      let set = set_gauge reg ~track:Metrics.Sched ~labels in
      set "htvm_sched_instance_busy_cycles" "Busy cycles per instance." i.busy;
      set "htvm_sched_instance_served" "Requests served per instance." i.served;
      set "htvm_sched_instance_batches" "Batches dispatched per instance." i.batches;
      set "htvm_sched_instance_degraded" "1 when the instance left the healthy rotation."
        (match i.degraded_at with Some _ -> 1 | None -> 0);
      Option.iter
        (fun m ->
          set "htvm_sched_instance_probe_cycles"
            "Cycles the instance spent on health probes." i.probe_cyc;
          set "htvm_sched_instance_readmissions"
            "Times the instance rejoined the healthy rotation." (Health.readmissions m))
        i.hm)
    x.x_instances;
  fleet_gauges reg "htvm_sched" x;
  {
    r_config = cfg;
    r_window = window;
    r_mean_gap = mean_gap;
    r_outcomes = outcomes;
    r_served = x.x_served;
    r_rejected = rejected;
    r_aborted = aborted;
    r_shed_rate =
      (if cfg.requests = 0 then 0.0
       else float_of_int rejected /. float_of_int cfg.requests);
    r_service = x.x_service;
    r_sojourn = x.x_sojourn;
    r_makespan = x.x_makespan;
    r_throughput_rps = x.x_throughput;
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
               i_utilization = utilization x i.busy;
               i_faults = i.faults;
               i_degraded_at = i.degraded_at;
               i_health = Option.map health_stat_of i.hm;
               i_totals = i.totals;
             })
           x.x_instances);
    r_slo =
      Option.map
        (fun target ->
          {
            s_target = target;
            s_pred_violations = pred_violations;
            s_observed_violations = observed_violations;
            s_pred_violation_rate =
              (if x.x_served = 0 then 0.0
               else float_of_int pred_violations /. float_of_int x.x_served);
          })
        cfg.slo_sojourn;
    r_health =
      (match (x.x_pred, health_cfg) with
      | Some pm, Some hc ->
          Some
          {
            h_config = hc;
            h_pred_state = Health.state pm;
            h_pred_transitions = List.length (Health.transitions pm);
            h_pred_readmissions = Health.readmissions pm;
            h_pred_relapses = Health.relapses pm;
            h_pred_probe_cycles = Health.probe_cycles pm;
            h_pred_fail_open = x.x_pred_fail_open;
            h_shed = x.x_health_shed;
          }
      | _ -> None);
    r_fail_open = x.x_fail_open;
    r_memo_hits = x.x_memo_hits;
    r_memo_misses = x.x_memo_misses;
    r_metrics = Metrics.snapshot reg;
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

(* --- multi-tenant front end --------------------------------------------- *)

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

(* Validate the static configuration over the registry's model names,
   so `htvmc serve` can check a command line before compiling anything;
   every violation is a typed error rather than an exception. *)
let mt_validate cfg ~models ~classes =
  let err msg = Error (Bad_config msg) in
  let distinct l = List.length (List.sort_uniq compare l) = List.length l in
  match
    fleet_violation ~workers:cfg.mt_workers ~queue_depth:cfg.mt_queue_depth
      ~requests:cfg.mt_requests
      ~mean_gap:
        (match cfg.mt_arrival with
        | Mt_poisson { mean_gap } | Mt_diurnal { mean_gap; _ } | Mt_bursty { mean_gap; _ } ->
            mean_gap
        | Mt_closed | Mt_replay _ -> 0)
      ~window:cfg.mt_window ~dispatch_overhead:cfg.mt_dispatch_overhead
      ~degraded:cfg.mt_degraded_instances ~health:cfg.mt_health
  with
  | Some msg -> err msg
  | None -> (
      if cfg.mt_max_batch < 0 then err "max_batch must be >= 1 (or 0 = autotune)"
      else if cfg.mt_swap_overhead < 0 then err "swap_overhead must be >= 0"
      else if models = [] then err "the model registry is empty"
      else if classes = [] then err "at least one model class is required"
      else if not (distinct models) then err "model registry names must be unique"
      else if not (distinct (List.map (fun k -> k.k_name) classes)) then
        err "class names must be unique"
      else if List.exists (fun k -> k.k_name = "" || String.contains k.k_name ' ') classes
      then err "class names must be non-empty and contain no spaces"
      else if List.exists (fun k -> k.k_weight < 1) classes then
        err "class weights must be >= 1"
      else if
        List.exists (fun k -> match k.k_slo with Some t -> t < 1 | None -> false) classes
      then err "class SLO targets must be >= 1"
      else
        match cfg.mt_arrival with
        | Mt_diurnal { period; _ } when period < 0 ->
            err "diurnal period must be >= 0 (0 = auto)"
        | Mt_bursty { burst; _ } when burst < 1 -> err "burst must be >= 1"
        | arrival -> (
            let n_models =
              List.length (List.sort_uniq compare (List.map (fun k -> k.k_model) classes))
            in
            let configured name = List.exists (fun k -> k.k_name = name) classes in
            match (List.find_opt (fun k -> not (List.mem k.k_model models)) classes, arrival) with
            | Some k, _ -> Error (Unknown_model { class_name = k.k_name; model = k.k_model })
            | None, _ when cfg.mt_placement = Pinned && cfg.mt_workers < n_models ->
                err
                  (Printf.sprintf
                     "pinned placement needs workers >= distinct models (%d < %d)"
                     cfg.mt_workers n_models)
            | None, Mt_replay entries -> (
                match List.find_opt (fun e -> not (configured e.t_class)) entries with
                | Some e ->
                    Error
                      (Unknown_class
                         {
                           class_name = e.t_class;
                           context = Printf.sprintf "trace line %d" e.t_line;
                         })
                | None -> Ok ())
            | None, _ -> Ok ()))

(* Resolve each class's model name against the (validated) registry;
   the distinct models actually referenced get dense indices in
   first-reference order (the pinning map runs over those). *)
let mt_resolve ~models ~classes =
  let rec resolve acc used = function
    | [] -> (List.rev acc, List.rev used)
    | k :: rest ->
        let m = List.find (fun m -> m.m_name = k.k_model) models in
        let used, idx =
          match
            List.mapi (fun i u -> (i, u)) (List.rev used)
            |> List.find_opt (fun (_, u) -> u.m_name = m.m_name)
          with
          | Some (i, _) -> (used, i)
          | None -> (m :: used, List.length used)
        in
        resolve ((k, idx) :: acc) used rest
  in
  resolve [] [] classes

let mt_run ?trace ?metrics cfg ~models ~classes =
  let ( let* ) = Result.bind in
  let* () = mt_validate cfg ~models:(List.map (fun m -> m.m_name) models) ~classes in
  let class_models, used_models = mt_resolve ~models ~classes in
  let class_arr = Array.of_list classes in
  let used = Array.of_list used_models in
  let class_index name =
    let rec go i = if class_arr.(i).k_name = name then i else go (i + 1) in
    go 0
  in
  let replay =
    match cfg.mt_arrival with
    | Mt_replay entries -> List.map (fun e -> (e, class_index e.t_class)) entries
    | _ -> []
  in
  let service = service_cycles used_models in
  let open_mode =
    match cfg.mt_arrival with Mt_closed -> false | _ -> true
  in
  let resolved_gap =
    match cfg.mt_arrival with
    | Mt_closed | Mt_replay _ -> 0
    | Mt_poisson { mean_gap } | Mt_diurnal { mean_gap; _ }
    | Mt_bursty { mean_gap; _ } ->
        auto_gap service mean_gap
  in
  let window = if open_mode then auto_window service cfg.mt_window else 0 in
  let resolved_period =
    match cfg.mt_arrival with
    | Mt_diurnal { period; _ } -> if period > 0 then period else 8 * window
    | _ -> 0
  in
  (* Health lifecycle (observed plane only — the multi-tenant path is
     fault-free): auto fields resolve against the slowest referenced
     model's fault-free service cycles, violations surface as typed
     [Bad_config] errors. *)
  let* mt_health_cfg =
    match cfg.mt_health with
    | None -> Ok None
    | Some hc -> (
        match resolve_health hc ~service with
        | Ok hc -> Ok (Some hc)
        | Error msg -> Error (Bad_config msg))
  in
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
    match cfg.mt_arrival with
    | Mt_replay _ ->
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
  (* Fault-free, no memoization, no predicted plane: SLO shedding works
     off the predicted sojourns of batch assembly. *)
  let x =
    serve_engine ?trace
      {
        e_style = Multi;
        e_workers = cfg.mt_workers;
        e_queue_depth = cfg.mt_queue_depth;
        e_window = window;
        e_max_batch = cfg.mt_max_batch;
        e_dispatch_overhead = cfg.mt_dispatch_overhead;
        e_swap_overhead = cfg.mt_swap_overhead;
        e_placement = cfg.mt_placement;
        e_jobs = cfg.mt_jobs;
        e_use_plan = cfg.mt_use_plan;
        e_faults = None;
        e_memoize = false;
        e_predict = false;
        e_degrade_after = None;
        e_degraded = cfg.mt_degraded_instances;
        e_health = mt_health_cfg;
      }
      ~models:used
      ~classes:(Array.of_list (List.map (fun (k, m) -> (m, k.k_slo)) class_models))
      requests
  in
  let outcomes =
    List.map
      (fun q ->
        ( q,
          match x.x_fates.(q.q_id) with
          | Ran { f_instance; f_batch; f_start; f_pred; f_exec = Done d } ->
              Mt_served
                {
                  mo_instance = f_instance;
                  mo_batch = f_batch;
                  mo_start = f_start;
                  mo_finish = f_start + d.e_service;
                  mo_service = d.e_service;
                  mo_digest = d.e_digest;
                  mo_pred_sojourn = f_pred;
                }
          | Shed_queue w -> Mt_shed_queue { mo_window = w }
          | Shed_slo p -> Mt_shed_slo { mo_pred_sojourn = p }
          | Ran { f_exec = Abort _; _ } | Shed_health _ ->
              assert false (* fault-free, no predicted plane *) ))
      requests
  in
  let count p = List.length (List.filter p outcomes) in
  let shed_queue = count (function _, Mt_shed_queue _ -> true | _ -> false) in
  let shed_slo = count (function _, Mt_shed_slo _ -> true | _ -> false) in
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
  let reg = match metrics with Some r -> r | None -> Metrics.create () in
  let counter = add_counter reg in
  counter "htvm_mtserve_requests_total" "Requests generated or replayed." n_requests;
  counter "htvm_mtserve_served_total" "Requests served to completion." x.x_served;
  counter "htvm_mtserve_shed_queue_total" "Requests shed at the per-window ingress cap."
    shed_queue;
  counter "htvm_mtserve_shed_slo_total"
    "Requests shed because the predicted sojourn broke the class SLO." shed_slo;
  counter "htvm_mtserve_batches_total" "Batches assembled (predicted schedule)."
    x.x_batches;
  set_gauge reg "htvm_mtserve_batch_size"
    "Resolved batch size (autotuned when max_batch = 0)." x.x_batch_size;
  List.iteri
    (fun ci cs ->
      let labels = [ ("class", cs.cs_name) ] in
      counter ~labels "htvm_mtserve_class_requests_total" "Per-class requests."
        cs.cs_requests;
      counter ~labels "htvm_mtserve_class_served_total" "Per-class served requests."
        cs.cs_served;
      counter ~labels "htvm_mtserve_class_shed_queue_total" "Per-class ingress-cap sheds."
        cs.cs_shed_queue;
      counter ~labels "htvm_mtserve_class_slo_pred_violations_total"
        "Per-class predicted-SLO violations (shed before dispatch)." cs.cs_shed_slo;
      let h =
        Metrics.histogram reg ~labels ~buckets:cycle_buckets
          ~help:"Per-class service cycles." "htvm_mtserve_class_service_cycles"
      in
      List.iter
        (function
          | q, Mt_served s when q.q_class = ci -> Metrics.observe h s.mo_service
          | _ -> ())
        outcomes)
    class_stats;
  let m_window =
    Metrics.series reg
      ~columns:[ "arrivals"; "admitted"; "shed_queue"; "shed_slo" ]
      ~help:"Per dispatch window: multi-tenant admission accounting."
      "htvm_mtserve_window"
  in
  List.iter
    (fun (w, (arr, adm, sq, ss)) ->
      Metrics.sample m_window ~ts:(window_close ~window w)
        [ float_of_int arr; float_of_int adm; float_of_int sq; float_of_int ss ])
    (fold_windows
       (fun (q, _) -> window_of ~window q.q_arrival)
       (fun (arr, adm, sq, ss) (_, o) ->
         match o with
         | Mt_shed_queue _ -> (arr + 1, adm, sq + 1, ss)
         | Mt_shed_slo _ -> (arr + 1, adm, sq, ss + 1)
         | Mt_served _ -> (arr + 1, adm + 1, sq, ss))
       (0, 0, 0, 0) outcomes);
  List.iter
    (fun cs ->
      counter ~track:Metrics.Sched ~labels:[ ("class", cs.cs_name) ]
        "htvm_mtserve_class_slo_observed_violations_total"
        "Per-class observed SLO violations (fleet-shape dependent)."
        cs.cs_observed_violations)
    class_stats;
  Array.iter
    (fun i ->
      let labels = [ ("instance", string_of_int i.id) ] in
      let set = set_gauge reg ~track:Metrics.Sched ~labels in
      set "htvm_mtsched_instance_busy_cycles" "Busy cycles." i.busy;
      set "htvm_mtsched_instance_served" "Requests served." i.served;
      set "htvm_mtsched_instance_swaps" "Model reloads paid by this instance." i.swaps;
      Option.iter
        (fun m ->
          set "htvm_mtsched_instance_probe_cycles"
            "Cycles the instance spent on health probes." i.probe_cyc;
          set "htvm_mtsched_instance_readmissions"
            "Times the instance rejoined the healthy rotation." (Health.readmissions m))
        i.hm)
    x.x_instances;
  counter ~track:Metrics.Sched "htvm_mtsched_fail_open_total"
    "Batches dispatched with no eligible instance in their pool." x.x_fail_open;
  fleet_gauges reg "htvm_mtsched" x;
  Ok
    {
      mt_cfg = cfg;
      mt_class_list = classes;
      mt_resolved_window = window;
      mt_resolved_gap = resolved_gap;
      mt_batch = x.x_batch_size;
      mt_outcomes = outcomes;
      mt_served = x.x_served;
      mt_shed_queue = shed_queue;
      mt_shed_slo = shed_slo;
      mt_swaps = Array.fold_left (fun acc i -> acc + i.swaps) 0 x.x_instances;
      mt_class_stats = class_stats;
      mt_service = x.x_service;
      mt_sojourn = x.x_sojourn;
      mt_makespan = x.x_makespan;
      mt_throughput_rps = x.x_throughput;
      mt_fail_open = x.x_fail_open;
      mt_instances =
        Array.to_list
          (Array.map
             (fun i ->
               {
                 mi_id = i.id;
                 mi_batches = i.batches;
                 mi_served = i.served;
                 mi_busy = i.busy;
                 mi_swaps = i.swaps;
                 mi_utilization = utilization x i.busy;
                 mi_model = Option.map (fun m -> used.(m).m_name) i.loaded;
                 mi_health = Option.map health_stat_of i.hm;
               })
             x.x_instances);
      mt_metrics = Metrics.snapshot reg;
    }

(* --- rendering helpers ------------------------------------------------ *)

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
