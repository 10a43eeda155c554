(** Sustained chaos-under-load campaigns.

    A campaign sweeps one fault site's injection probability across a
    list of rate points and runs the full {!Serve.run} pipeline — load
    generation, health lifecycle, fault injection, retry/abort — once
    per point, holding everything else fixed. The output is the
    robustness curve the paper's reliability story needs: SLO-violation,
    shed-rate, abort and readmission counts as a function of fault
    pressure.

    Every curve field is taken from the {e predicted} (workers/jobs-
    invariant) plane of the underlying runs, so {!tally} is
    byte-identical at any fleet shape or host job count — the campaign
    analogue of the serve tally guarantee, enforced by
    `tools/verify.sh`. *)

type config = {
  c_serve : Serve.config;
      (** base serving config. Its [plan] field is replaced per rate
          point; everything else (seed, arrival, health lifecycle, SLO
          target, ...) is held fixed across the sweep. *)
  c_rates : float list;  (** injection probabilities, each in [0, 1] *)
  c_site : string;  (** fault site label, e.g. ["dma_in"] (plan grammar) *)
  c_kind : string;  (** fault kind spec, e.g. ["flip"] or ["stall=400"] *)
  c_fault_seed : int;  (** seed shared by every generated plan *)
}

val default : config
(** [Serve.default] base with the default health lifecycle enabled, a
    probabilistic bit-flip on [dma_in], fault seed 7 and rates
    [0.002; 0.01; 0.05]. *)

type point = {
  pt_rate : float;
  pt_plan : Fault.Plan.t;  (** the generated per-point campaign plan *)
  pt_report : Serve.report;
}

type t = { t_config : config; t_points : point list  (** in sweep order *) }

val validate : config -> (unit, string) result
(** Diagnose a campaign without the artifact: an empty, out-of-range or
    repeated rate list, an unparseable site/kind spec, or a base config
    {!Serve.validate} rejects. [htvmc campaign] calls this before it
    compiles. *)

val run :
  ?metrics:Metrics.t ->
  config ->
  Htvm.Compile.artifact ->
  graph:Ir.Graph.t ->
  (t, string) result
(** Run one serve pipeline per rate point (each on a private metrics
    registry) and record the curve into [metrics] (or a private
    registry) as rate-labelled cycles-track counters
    ([htvm_campaign_*_total{rate=...}]). All failures are typed
    [Error]s: whatever {!validate} rejects, or a base config
    {!Serve.run} rejects at a rate point. *)

val tally : t -> string
(** The functional ledger of the sweep: one line per rate point with
    served/rejected/aborted counts, predicted SLO violations, shed
    rate, and the predicted plane's readmission/relapse/fail-open/shed
    stats. Byte-identical at any [workers]/[jobs]. *)

val summary : t -> string
(** Human-readable curve, one row per rate point. *)

val to_json : t -> Trace.Json.t
(** Machine-readable sweep ([htvmc campaign --json]): config plus the
    per-point curve fields. *)
