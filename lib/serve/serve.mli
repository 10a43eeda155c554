(** Batched inference serving over a simulated DIANA fleet.

    One serving engine, two front ends. {!run} loads one compiled
    {!Htvm.Compile.artifact} and drives a fleet of [workers] independent
    simulated SoC instances through a seeded synthetic request stream;
    {!mt_run} hosts several artifacts behind one fleet for weighted
    request classes. A front end owns its validation and error contract,
    its request generation and the projection into its report; admission,
    execution, batch assembly, routing, the health drain and aggregation
    are one shared engine, so the two agree request for request wherever
    their features overlap. The serving loop is a discrete-event
    simulation in {e simulated cycles}:

    - {b Arrivals.} Requests carry a per-request input seed and an
      arrival time, both drawn from one {!Util.Rng} stream seeded by
      [seed]. {!Closed} is the saturating load generator (every request
      backlogged at cycle 0, the standard throughput experiment);
      {!Poisson} is the open-loop experiment with exponential
      inter-arrival gaps.
    - {b Admission.} In Poisson mode the ingress buffer holds at most
      [queue_depth] requests per dispatch window; requests arriving into
      a full window are shed with a typed {!Rejected} outcome. Admission
      is a pure function of the arrival stream, so the shed set does not
      depend on the fleet size. Closed mode never sheds (the generator
      only offers what it wants served).
    - {b Batching.} Each window's admitted requests are chunked into
      batches of at most [max_batch]; a batch costs one
      [dispatch_overhead] on top of its requests' service cycles, so
      batching amortizes dispatch cost at the price of queueing delay.
    - {b Routing.} A batch goes to the earliest-free instance that is
      healthy at dispatch time (lowest id on ties). Instances whose
      fault sessions have reported at least [degrade_after] faults are
      marked degraded at the completion cycle of the offending batch and
      routed around from then on; if every instance is degraded the
      router fails open and keeps dispatching (degraded beats down).
      With a [health] lifecycle configured, the one-way degraded flag is
      replaced by a per-instance {!Health.t} state machine: degraded
      instances re-enter probation after a (relapse-escalated) cooldown,
      run seeded probes that cost cycles on the probed instance, and are
      {e readmitted} to the rotation after enough consecutive passes.
    - {b Execution.} Every request runs on a fresh simulated machine
      (its own memories and counters) under its {e own} fault session —
      the campaign seed is derived from the plan seed and the request
      id — so a request's output digest, service cycles and fault
      tallies are a pure function of the request, never of which
      instance served it or how many instances exist.

    The functional {!tally} (per-request outcomes + the service-latency
    histogram) is therefore byte-identical for a fixed [seed] at any
    [workers] and any [jobs] — the serving-layer analogue of the
    compilation engine's jobs-invariance — while throughput, queueing
    delay and per-instance utilization legitimately improve with fleet
    size and are reported separately. *)

type arrival =
  | Closed
      (** Saturating backlog: all requests available at cycle 0, no
          shedding. The throughput experiment. *)
  | Poisson of { mean_gap : int }
      (** Open loop with exponential inter-arrival gaps of the given
          mean (cycles); [>= 0], where [0] means auto: half a request's
          fault-free service cycles, read from the plan
          ({!Htvm.Compile.service_cycles}), i.e. roughly 2x one
          instance's capacity. *)

type config = {
  workers : int;  (** fleet size: independent simulated SoC instances *)
  max_batch : int;  (** requests per dispatch batch *)
  queue_depth : int;  (** ingress buffer capacity per dispatch window *)
  requests : int;  (** synthetic requests to generate *)
  seed : int;  (** seeds the arrival process and every request payload *)
  arrival : arrival;
  window : int;
      (** dispatch window length in cycles (Poisson mode only);
          [>= 0], where [0] means auto: a request's fault-free service
          cycles, read from the plan *)
  dispatch_overhead : int;  (** cycles charged once per dispatched batch *)
  plan : Fault.Plan.t;
      (** fault campaign; {!Fault.Plan.empty} disables injection. Each
          request draws from a session seeded by [plan.seed] and the
          request id. *)
  retry_budget : int;  (** per-operation retries before a request aborts; [>= 0] *)
  degrade_after : int option;
      (** mark an instance degraded once the fault sessions of the
          requests it served have reported this many faults (detected +
          silent); [>= 1]; [None] = never *)
  degraded_instances : int list;
      (** instance ids degraded from cycle 0 (a health monitor's prior) *)
  jobs : int;
      (** host worker domains driving the fleet's request executions;
          purely a wall-clock knob — results are bit-identical at any
          value *)
  slo_sojourn : int option;
      (** sojourn (arrival-to-completion) SLO target in cycles; [None]
          disables SLO accounting. Violations are counted twice: against
          the {e predicted} queueing-free sojourn (worker-invariant, in
          the tally and on the metrics cycles track) and against the
          {e observed} scheduled sojourn (fleet-shape dependent, report
          and sched track only). *)
  use_plan : bool;
      (** execute requests through the artifact's compiled
          {!Sim.Plan} fast path (default); [false] forces the slow
          interpretive oracle. Tallies are byte-identical either way —
          `tools/verify.sh` diffs the two. *)
  memoize : bool;
      (** reuse one execution across admitted requests with identical
          input digests (dedup happens before the pool fan-out). Sound
          only for input-pure executions, so it requires an empty fault
          [plan]. The tally is byte-identical with and without it; hit /
          miss counts land in the report, the summary and the
          [htvm_serve_memo_{hits,misses}_total] counters. *)
  input_mix : int;
      (** [0] (default): every request draws a fresh input seed — the
          historical fully-unique stream, byte-for-byte. [k > 0]: per-
          request seeds are folded into a pool of [k] seeds derived from
          [seed], so requests repeat payloads and memoization has
          something to hit. Arrival times are unaffected by the mix. *)
  health : Health.config option;
      (** enable the health lifecycle. Mutually exclusive with
          [degrade_after] (the lifecycle subsumes the one-way flag).
          Four fields take an auto sentinel, resolved against a
          request's fault-free service cycles, read from the plan
          (nothing is executed). [probation_window >= 0], where [0]
          becomes twice the service cycles; [probe_interval >= -1],
          where [-1] becomes a quarter of them ([0] means back-to-back
          probes); [probe_cost >= 0], where [0] becomes a tenth (min
          1); [backoff_cap >= 0], where [0] becomes eight probation
          windows.

          Two planes run the same machine. The {e predicted} plane is
          one logical machine (instance id -1) advanced along the
          queueing-free batch timeline — it feeds the tally footer, the
          cycles-track [htvm_health_pred_*] counters, health-aware
          admission shedding and the predicted fail-open count, all
          byte-identical at any [workers]/[jobs]. The {e observed} plane
          is one machine per instance fed by the faults of the batches
          it actually served — it drives routing eligibility, charges
          probe cycles to instance busy time, and reports via
          {!instance_stat.i_health}, the sched track and {!run}'s
          trace. *)
}

val default : config
(** [workers = 4], [max_batch = 8], [queue_depth = 32], [requests = 64],
    [seed = 42], closed-loop arrivals, auto window, 1000-cycle dispatch
    overhead, no faults, retry budget 3, no degradation, [jobs = 1],
    no SLO, plan fast path on, no memoization, fully-unique inputs, no
    health lifecycle. *)

type request = {
  r_id : int;
  r_input_seed : int;  (** seeds {!Models.Zoo.random_input} *)
  r_arrival : int;  (** arrival cycle *)
}

type outcome =
  | Served of {
      o_instance : int;  (** who served it (worker-count dependent) *)
      o_batch : int;  (** global batch index *)
      o_start : int;  (** cycle its own service began *)
      o_finish : int;  (** completion cycle *)
      o_service : int;  (** simulated inference cycles (worker-invariant) *)
      o_wait : int;  (** [o_start - r_arrival]: queueing + batching delay *)
      o_digest : string;  (** output-tensor digest (worker-invariant) *)
      o_detected : int;  (** detected faults during this request *)
      o_silent : int;  (** silent corruptions during this request *)
      o_retries : int;
      o_pred_sojourn : int;
          (** predicted queueing-free sojourn: window close + dispatch
              overhead + in-batch service prefix, minus arrival. A
              worker-invariant lower bound on [o_finish - r_arrival]
              (batch assembly precedes routing). *)
    }
  | Rejected of { o_window : int }
      (** shed at admission: the window's ingress buffer was full *)
  | Aborted of {
      o_instance : int;
      o_batch : int;
      o_site : string;  (** failing fault site *)
      o_attempts : int;  (** attempts made, including the original *)
    }  (** a detected fault exhausted [retry_budget]; the modeled runtime
          returned an error rather than corrupt data *)

type percentiles = {
  p_count : int;
  p_min : int;
  p_mean : float;
  p50 : int;
  p95 : int;
  p99 : int;
  p_max : int;
}

val percentiles_of : int list -> percentiles
(** Nearest-rank percentiles in exact integer arithmetic (the p-th
    percentile of n values is the value at rank ceil(p*n/100), 1-based);
    all-zero for the empty list. *)

type health_stat = {
  hs_state : Health.state;  (** end-of-run state *)
  hs_transitions : int;
  hs_readmissions : int;
  hs_relapses : int;
  hs_probes_passed : int;
  hs_probes_failed : int;
  hs_probe_cycles : int;
}
(** Observed-plane lifecycle stats of one instance's {!Health.t}. *)

type instance_stat = {
  i_id : int;
  i_batches : int;
  i_served : int;
  i_aborted : int;
  i_busy : int;  (** cycles spent executing batches (and health probes) *)
  i_utilization : float;  (** [i_busy] / makespan *)
  i_faults : int;  (** detected + silent faults over its requests *)
  i_degraded_at : int option;
      (** cycle it first left the healthy rotation *)
  i_health : health_stat option;  (** [Some] iff [config.health] was set *)
  i_totals : Sim.Counters.t;  (** summed counters of its served requests *)
}

type slo = {
  s_target : int;  (** the configured [slo_sojourn] *)
  s_pred_violations : int;
      (** served requests whose predicted sojourn exceeded the target —
          worker-invariant, counted in the tally *)
  s_observed_violations : int;
      (** served requests whose scheduled sojourn exceeded the target —
          moves with the fleet shape; always >= [s_pred_violations] *)
  s_pred_violation_rate : float;  (** predicted violations / served *)
}

type health_summary = {
  h_config : Health.config;  (** resolved config (autos filled in) *)
  h_pred_state : Health.state;  (** predicted plane's end-of-run state *)
  h_pred_transitions : int;
  h_pred_readmissions : int;
  h_pred_relapses : int;
  h_pred_probe_cycles : int;
  h_pred_fail_open : int;
      (** batches whose predicted dispatch found the predicted machine
          ineligible (the admission controller's fail-open estimate) *)
  h_shed : int;
      (** requests shed by health-aware admission (the ingress cap is
          halved while the predicted machine is out of rotation) *)
}
(** Predicted-plane health accounting — a pure function of the config,
    so every field is byte-identical at any [workers]/[jobs] and lands
    in the tally footer. Observed counterparts live in
    {!instance_stat.i_health} and {!report.r_fail_open}. *)

type report = {
  r_config : config;
  r_window : int;  (** resolved dispatch window (after auto-probing) *)
  r_mean_gap : int;  (** resolved Poisson gap; 0 in closed mode *)
  r_outcomes : (request * outcome) list;  (** in request order *)
  r_served : int;
  r_rejected : int;
  r_aborted : int;
  r_shed_rate : float;  (** rejected / requests *)
  r_service : percentiles;  (** per-request inference cycles (invariant) *)
  r_sojourn : percentiles;
      (** arrival-to-completion cycles (improves with fleet size) *)
  r_makespan : int;  (** last completion cycle *)
  r_throughput_rps : float;
      (** served requests per second of simulated time at the platform
          clock *)
  r_instances : instance_stat list;
  r_slo : slo option;  (** [Some] iff [slo_sojourn] was set *)
  r_health : health_summary option;  (** [Some] iff [health] was set *)
  r_fail_open : int;
      (** batches dispatched with {e no} eligible instance (the router
          fails open rather than stall) — fleet-shape dependent, on the
          sched track as [htvm_sched_fail_open_total] *)
  r_memo_hits : int;
      (** admitted requests served from a memoized execution (0 unless
          [memoize]) *)
  r_memo_misses : int;
      (** distinct inputs actually executed under memoization (0 unless
          [memoize]) *)
  r_metrics : Metrics.snapshot;
      (** the run's telemetry: admission/outcome counters, service and
          predicted-sojourn histograms, the per-window series and
          summed simulator counters on the cycles track (byte-identical
          at any [workers]/[jobs]); per-instance stats, makespan,
          throughput and observed SLO violations on the sched track. *)
}

(** Typed serving errors, shared by both surfaces: {!mt_run} returns
    them; the single-tenant path surfaces config violations through
    {!validate}. *)
type mt_error =
  | Unknown_model of { class_name : string; model : string }
      (** a class names a model absent from the registry *)
  | Unknown_class of { class_name : string; context : string }
      (** a trace line references a class the run does not configure *)
  | Bad_trace of { line : int; reason : string }
      (** unparseable arrival trace ([line = 0]: the file itself) *)
  | Bad_config of string  (** numeric/structural config violation *)

val mt_error_to_string : mt_error -> string

val validate : config -> (unit, mt_error) result
(** Diagnose a single-tenant config without the artifact: [Error
    (Bad_config msg)] for every violation {!run} raises [Invalid_argument
    msg] on but one (e.g. [memoize] under a non-empty fault plan). The
    exception needs the plan: an explicit [backoff_cap] below an auto
    [probation_window] that resolves above it. [htvmc serve] calls this
    before it opens a store or compiles. *)

val run :
  ?trace:Trace.t ->
  ?metrics:Metrics.t ->
  config ->
  Htvm.Compile.artifact ->
  graph:Ir.Graph.t ->
  report
(** Serve the configured request stream on a fleet of fresh instances.
    [graph] is the model the artifact was compiled from (it shapes the
    synthetic inputs). When [trace] is given, every dispatched batch is
    recorded as an interval on a per-instance track ([instance 0],
    [instance 1], ...), shed events on the [serve] track, and the
    per-window ingress occupancy as a [queue] counter track.

    The run always records telemetry ({!report.r_metrics}): into
    [metrics] when given — so one registry can carry compile-side and
    serve-side metrics, see {!Htvm.Compile.compile} — or into a private
    registry. Registration is strict, so a caller-supplied registry must
    not have hosted a serve run before.
    @raise Invalid_argument on a non-positive [workers], [max_batch],
    [queue_depth], [slo_sojourn], a negative [requests], [input_mix],
    [retry_budget], [dispatch_overhead], [window] or Poisson
    [mean_gap], a [degrade_after] below 1,
    [memoize] combined with a non-empty fault [plan], a
    [degraded_instances] id outside [[0, workers)] or listed twice, an
    out-of-range [health] field (see {!Health.validate}), or [health]
    combined with [degrade_after]. *)

val tally : report -> string
(** The canonical functional ledger: one line per request (outcome,
    output digest, service cycles, fault counts) plus the
    service-latency histogram and outcome totals. Contains no
    instance assignments, waits or throughput — for a fixed [seed] it is
    byte-identical at any [workers] and [jobs], which `tools/verify.sh`
    enforces by diffing runs. *)

val summary : report -> string
(** Human-readable digest: throughput, latency percentiles, shed rate,
    per-instance utilization. *)

val to_json : report -> Trace.Json.t
(** Machine-readable report: everything in {!report}, including the
    worker-dependent serving metrics ([htvmc serve --json]). *)

(** {1 Multi-tenant serving}

    {!mt_run} hosts {e several} compiled artifacts behind one fleet. A
    {!model} registry maps names to artifacts; {!model_class}es describe
    request populations (which model, what latency SLO, what share of
    traffic); instances either pin one model each ({!Pinned}) or reload
    on demand ({!Swap}, charging [mt_swap_overhead] per model change).

    It is a second front end over {!run}'s engine, so the determinism
    architecture is the same code: generation, ingress-cap admission,
    SLO shedding and batch assembly are pure functions of the seed (or
    of a replayed arrival trace), so the {!mt_tally} — per-request
    outcomes, per-class totals, the shed set — is byte-identical at any
    [mt_workers]/[mt_jobs]. Only the scheduling pass (pinning, hot
    swaps, per-instance clocks) sees the fleet, and it feeds the sched
    metrics track alone. A one-model, one-class {!Pinned} [mt_run]
    replaying {!run}'s arrivals reproduces {!run}'s schedule request for
    request.

    SLO shedding works off {e predicted} sojourns: exact per-request
    service cycles plus a queueing-free dispatch model (window close +
    dispatch overhead + one cold model load under {!Swap} + the in-batch
    service prefix). Unlike the single-model predictor this is not a
    lower bound on the observed sojourn — a warm instance skips the
    reload the predictor always charges — it is the admission
    controller's cost model, applied identically at any fleet shape.

    The multi-tenant front end hands the engine no fault plan, no
    memoization and no predicted health plane: fault injection, memo
    reuse and health-aware admission are {!run} features. *)

type model = {
  m_name : string;
  m_artifact : Htvm.Compile.artifact;
  m_graph : Ir.Graph.t;  (** shapes the synthetic inputs *)
}
(** A registry entry: one compiled model a fleet can host. *)

type model_class = {
  k_name : string;  (** class name; non-empty, no spaces (trace grammar) *)
  k_model : string;  (** registry name of the model this class runs *)
  k_slo : int option;
      (** per-class sojourn SLO in cycles; requests whose predicted
          sojourn exceeds it are shed with {!Mt_shed_slo}. [None]
          disables shedding for the class (a batch class). *)
  k_weight : int;  (** share of synthetic traffic (>= 1) *)
}

type trace_entry = {
  t_cycle : int;  (** arrival cycle (non-decreasing across a trace) *)
  t_class : string;  (** class name; validated against the run's classes *)
  t_seed : int;  (** payload seed for {!Models.Zoo.random_input} *)
  t_line : int;  (** source line, for error context *)
}
(** One parsed line of an arrival trace. *)

type mt_arrival =
  | Mt_closed  (** saturating backlog at cycle 0; never queue-sheds *)
  | Mt_poisson of { mean_gap : int }
      (** exponential gaps; [mean_gap >= 0], [0] = auto (half the
          slowest referenced model's fault-free service cycles, read
          from its plan) *)
  | Mt_diurnal of { mean_gap : int; period : int }
      (** sinusoid-ish load: the gap mean sweeps from [mean_gap / 2]
          (peak) to [2 * mean_gap] (trough) over each [period] cycles;
          [period >= 0], [0] = auto (8 dispatch windows) *)
  | Mt_bursty of { mean_gap : int; burst : int }
      (** [burst] requests arrive together, then an exponential idle
          gap of mean [burst * mean_gap] *)
  | Mt_replay of trace_entry list
      (** replay a recorded arrival trace verbatim: cycles, classes and
          payload seeds come from the file, [mt_requests] and [mt_seed]
          are ignored for generation *)

type placement =
  | Pinned
      (** instance [i] permanently hosts referenced model [i mod n];
          requires [mt_workers >= n] distinct referenced models. No swap
          cost is ever paid (or predicted). *)
  | Swap
      (** any instance serves any batch, reloading when the batch's
          model differs from the resident one ([mt_swap_overhead]
          cycles). The admission predictor charges one cold load per
          batch. *)

type mt_config = {
  mt_workers : int;
  mt_max_batch : int;
      (** requests per dispatch batch; [0] = autotune (see {!mt_run}) *)
  mt_queue_depth : int;  (** ingress cap per dispatch window *)
  mt_requests : int;  (** ignored under {!Mt_replay} *)
  mt_seed : int;
  mt_arrival : mt_arrival;
  mt_window : int;
      (** [>= 0], [0] = auto: the slowest referenced model's fault-free
          service cycles, read from its plan *)
  mt_dispatch_overhead : int;
  mt_swap_overhead : int;  (** model reload cost in cycles *)
  mt_placement : placement;
  mt_jobs : int;  (** host domains; a wall-clock knob only *)
  mt_use_plan : bool;  (** route executions through {!Sim.Plan} *)
  mt_degraded_instances : int list;
      (** instance ids out of rotation from cycle 0. Without [mt_health]
          they stay out for the whole run; with it they walk the
          probation/readmission lifecycle. *)
  mt_health : Health.config option;
      (** per-instance health lifecycle (observed plane only — the
          multi-tenant path is fault-free, so machines only move on the
          boot flag and their own probe streams; auto fields resolve
          against the slowest referenced model's fault-free service
          cycles as in {!config}). The
          {!mt_tally} is unaffected: lifecycle stats live in
          {!mt_instance_stat.mi_health}, {!mt_report.mt_fail_open} and
          the sched metrics track. *)
}

val mt_default : mt_config
(** [mt_workers = 4], [mt_max_batch = 8], [mt_queue_depth = 32],
    [mt_requests = 64], [mt_seed = 42], closed arrivals, auto window,
    1000-cycle dispatch overhead, 5000-cycle swap overhead, {!Swap}
    placement, [mt_jobs = 1], plan fast path on, no degraded instances,
    no health lifecycle. *)

type mt_request = {
  q_id : int;
  q_class : int;  (** index into the run's class list *)
  q_input_seed : int;
  q_arrival : int;
}

type mt_outcome =
  | Mt_served of {
      mo_instance : int;
      mo_batch : int;
      mo_start : int;
      mo_finish : int;
      mo_service : int;  (** worker-invariant *)
      mo_digest : string;  (** worker-invariant *)
      mo_pred_sojourn : int;  (** the admission predictor's estimate *)
    }
  | Mt_shed_queue of { mo_window : int }
      (** shed at the per-window ingress cap (arrival-stream-pure) *)
  | Mt_shed_slo of { mo_pred_sojourn : int }
      (** predicted sojourn broke the class SLO; the slot was freed for
          later arrivals in the same window (arrival-stream-pure) *)

type class_stat = {
  cs_name : string;
  cs_model : string;
  cs_slo : int option;
  cs_weight : int;
  cs_requests : int;
  cs_served : int;
  cs_shed_queue : int;
  cs_shed_slo : int;  (** = predicted SLO violations: shed at admission *)
  cs_observed_violations : int;
      (** served requests whose scheduled sojourn broke the SLO —
          fleet-shape dependent, sched track only *)
  cs_service : percentiles;
}

type mt_instance_stat = {
  mi_id : int;
  mi_batches : int;
  mi_served : int;
  mi_busy : int;
  mi_swaps : int;  (** model reloads this instance paid *)
  mi_utilization : float;
  mi_model : string option;  (** resident model at end of run *)
  mi_health : health_stat option;  (** [Some] iff [mt_health] was set *)
}

type mt_report = {
  mt_cfg : mt_config;
  mt_class_list : model_class list;
  mt_resolved_window : int;
  mt_resolved_gap : int;
  mt_batch : int;  (** resolved batch size (autotuned when [mt_max_batch = 0]) *)
  mt_outcomes : (mt_request * mt_outcome) list;  (** in request order *)
  mt_served : int;
  mt_shed_queue : int;
  mt_shed_slo : int;
  mt_swaps : int;  (** total model reloads across the fleet *)
  mt_class_stats : class_stat list;  (** in class-list order *)
  mt_service : percentiles;
  mt_sojourn : percentiles;
  mt_makespan : int;
  mt_throughput_rps : float;
      (** at the {e first} registered model's platform clock *)
  mt_fail_open : int;
      (** batches dispatched with no eligible instance in their
          placement pool (fleet-shape dependent, sched track) *)
  mt_instances : mt_instance_stat list;
  mt_metrics : Metrics.snapshot;
      (** cycles track: request/outcome totals, per-class counters
          ([htvm_mtserve_class_*_total{class=...}]) including predicted
          SLO violations, per-class service histograms, the per-window
          admission series, resolved batch size — all byte-identical at
          any [mt_workers]/[mt_jobs]. Sched track: observed per-class
          SLO violations, per-instance busy/served/swaps, makespan,
          throughput. *)
}

val mt_validate :
  mt_config -> models:string list -> classes:model_class list -> (unit, mt_error) result
(** Diagnose a multi-tenant config against the registry's model names,
    before any model is compiled: every error {!mt_run} returns but the
    one that needs the plans (an explicit health [backoff_cap] below an
    auto [probation_window] that resolves above it). *)

val mt_run :
  ?trace:Trace.t ->
  ?metrics:Metrics.t ->
  mt_config ->
  models:model list ->
  classes:model_class list ->
  (mt_report, mt_error) result
(** Serve a multi-class request stream over a fleet hosting [models].

    Pipeline: validate → resolve auto values from the referenced
    models' fault-free service cycles, read from their plans (nothing
    is executed) → generate or replay arrivals → per-window ingress-cap
    admission → execute every admitted request on the [mt_jobs]-domain
    pool (order-preserving, so digests and service cycles are
    jobs-invariant) → SLO shed + per-model batch assembly in arrival
    order → schedule batches onto the fleet.

    With [mt_max_batch = 0] the batch size is autotuned: candidate
    sizes [1; 2; 4; 8; 16; 32] are scored on the predicted schedule —
    fewest SLO sheds, then lowest predicted total cost (per-batch
    dispatch + cold-load overheads, which wide batches amortize, plus
    summed predicted sojourns, which wide batches inflate), then the
    smaller size. A pure function of the arrival stream, so the chosen
    size is itself workers/jobs-invariant and is reported in
    {!mt_report.mt_batch} and the [htvm_mtserve_batch_size] gauge.

    All failures are typed: numeric violations — including an
    [mt_degraded_instances] id outside [[0, mt_workers)] or listed
    twice, and an out-of-range [mt_health] field — return [Error
    (Bad_config _)], an unresolvable class model [Error (Unknown_model
    _)], a trace naming an unconfigured class [Error (Unknown_class _)].
    Nothing in the multi-tenant path raises. *)

val render_arrival_trace : mt_report -> string
(** Serialize the run's arrival stream in the replayable trace format:

    {v
    htvm-serve-trace v1
    # comment
    <cycle> <class-name> <seed>
    v}

    Replaying this text through {!load_arrival_trace} + {!Mt_replay}
    reproduces the run's tally byte-for-byte (at any fleet shape). *)

val load_arrival_trace : string -> (trace_entry list, mt_error) result
(** Read and parse a trace file in the grammar above; IO failures map to
    [Bad_trace] with [line = 0]. Also rejected with [Bad_trace]: a
    missing or wrong header (line 1), a line without exactly three
    tokens, non-integer cycle/seed fields, negative cycles, and cycles
    that decrease. Blank lines and [#] comments are skipped. Class names
    are validated later, by {!mt_run}, against the run's class list. *)

val mt_tally : mt_report -> string
(** The multi-tenant functional ledger: config + class headers, one
    line per request (class, outcome, digest, service, predicted
    sojourn), outcome totals, per-class stats and service percentiles.
    Contains the shed set and no instance assignments — byte-identical
    for a fixed seed (or replayed trace) at any [mt_workers]/[mt_jobs]. *)

val mt_summary : mt_report -> string
(** Human-readable digest: totals, per-class p50/p99 and SLO
    violations, per-instance utilization and swap counts. *)

val mt_to_json : mt_report -> Trace.Json.t
