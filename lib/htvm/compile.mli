(** The HTVM compilation driver (paper Fig. 1).

    [compile] takes a quantized graph through the whole hybrid flow:
    graph optimizations, accelerator-aware pattern dispatch (BYOC), DORY
    tiling + schedule generation for matched layers, TVM-style fused
    lowering for the rest, L2 memory planning, C emission and binary-size
    accounting. The result is a simulator-runnable artifact. *)

type config = {
  platform : Arch.Platform.t;
      (** which accelerators exist decides dispatch (Table I's columns) *)
  memory_strategy : Dory.Memplan.strategy;
      (** [Reuse] = HTVM's planner; [No_reuse] = plain-TVM baseline *)
  double_buffer : bool;
  use_pe_heuristics : bool;
  use_dma_heuristic : bool;
  autotune_budget : int option;
      (** when set, TVM-style autotuning refines every heavy CPU kernel
          with up to this many simulated device measurements (paper
          Sec. II-B); [None] = the paper's fully ahead-of-time flow *)
  jobs : int;
      (** worker domains for tiling solves and autotune trials; 1 =
          sequential (no domain is ever spawned). Results are
          bit-identical at every job count. *)
  solver_cache : Dory.Tiling_cache.t option;
      (** when set, tiling solves are memoized across layers and across
          compiles by canonical layer signature; cached compilations stay
          bit-identical to cold ones *)
  exhaustive_tiling : bool;
      (** disable the solver's binary search + branch-and-bound pruning
          and scan every candidate (same chosen tiles; benches use it as
          the pruning baseline) *)
  degraded_targets : string list;
      (** accelerators a health monitor has marked unreliable: segments
          the partitioner assigns to them descend the fallback ladder
          (other healthy accelerators, then the host) instead of being
          lowered there *)
  segment_budget_cycles : int option;
      (** per-segment latency/fault budget: a segment whose untiled
          busy-cycle estimate on an accelerator exceeds it is demoted off
          that accelerator (bounds the work lost to a mid-segment retry
          or abort); [None] = unbounded *)
}

val default_config : Arch.Platform.t -> config
(** Reuse planner, double buffering and all tiling heuristics on;
    [jobs] honours the [HTVM_JOBS] environment variable (default 1), no
    cache, pruned search. *)

val tvm_baseline_config : Arch.Platform.t -> config
(** Plain-TVM deployment model: no buffer reuse (and accelerators are
    whatever the platform carries — pass {!Arch.Diana.cpu_only} for the
    Table I baseline). *)

type layer_info = {
  li_index : int;  (** step index in the program *)
  li_target : string;  (** accelerator name or ["cpu"] *)
  li_desc : string;
  li_tiled : bool;
  li_tile : Arch.Tile.t option;
}

type solver_stats = {
  ss_explored : int;  (** candidate tiles feasibility-tested, all solves *)
  ss_infeasible : int;  (** of those, how many failed *)
  ss_pruned : int;  (** candidates skipped by the branch-and-bound bound *)
  ss_cache_hits : int;  (** this compile's {!Dory.Tiling_cache} hits (0 without) *)
  ss_cache_misses : int;
}
(** Tiling-search totals summed over every offloaded segment. The
    explored / infeasible / pruned totals are per-solve statistics, so
    they are identical whether a solve ran or was replayed from the
    cache; only the hit/miss split depends on caching. *)

type demotion_reason =
  | Degraded_target  (** the target is in [cfg.degraded_targets] *)
  | Infeasible of Dory.Tiling.infeasible
      (** no L1-feasible tile on that accelerator *)
  | Over_budget of { estimated_cycles : int; budget_cycles : int }
      (** untiled busy-cycle estimate exceeds [cfg.segment_budget_cycles] *)

type demotion = {
  d_output : Ir.Graph.id;  (** the segment's output node *)
  d_layer : string;  (** [Ir.Layer.describe] of the segment's layer *)
  d_from : string;  (** target the segment left *)
  d_to : string;  (** next rung tried: an accelerator name or ["cpu"] *)
  d_reason : demotion_reason;
}
(** One hop down the fallback ladder. A segment demoted twice (e.g.
    analog -> digital -> cpu) contributes two records, in ladder order. *)

val demotion_reason_to_string : demotion_reason -> string

type artifact = {
  cfg : config;
  program : Sim.Program.t;
  plan : Sim.Plan.t;
      (** compiled execution plan for [program], built eagerly at compile
          time; {!run} uses it by default ([use_plan]) *)
  size : Codegen.Size.report;
  layers : layer_info list;
  c_source : string;  (** DORY-style C for every offloaded layer *)
  l2_static_bytes : int;  (** weight images resident in L2 *)
  l2_arena_bytes : int;   (** activation arena capacity after statics *)
  tuning_trials : int;    (** device measurements spent by autotuning (0 without) *)
  solver : solver_stats;
  demotions : demotion list;
      (** every fallback-ladder hop taken, in segment order (empty when
          all segments lowered on their first-choice target) *)
}

(** Typed compilation failures. The conformance checker (lib/check) and
    the test suites match on the variant — never on message substrings —
    to tell a legitimate resource diagnosis from a compiler bug. *)
type error =
  | Out_of_memory of {
      oom_region : string;
          (** which L2 budget overflowed: ["L2 static"] (weights + code
              leave no room for activations) or ["L2 arena"] (the
              activation planner ran out) *)
      oom_needed_bytes : int;   (** bytes the failing allocation required *)
      oom_capacity_bytes : int; (** bytes that were available *)
      oom_detail : string;      (** full human-readable diagnosis *)
    }  (** A resource diagnosis — the expected outcome on undersized
          memories (Table I's MobileNet OoM under the TVM baseline). *)
  | No_feasible_tile of Dory.Tiling.infeasible
      (** An offloaded layer had no L1-feasible tile on any rung of the
          fallback ladder and no host fallback was possible. *)
  | Empty_graph  (** the graph has no operator applications *)
  | Internal of string
      (** A broken compiler invariant — always a bug, never a legitimate
          rejection. *)

val error_to_string : error -> string
(** Human-readable rendering (what [htvmc] prints). *)

val pp_error : Format.formatter -> error -> unit

val is_resource_error : error -> bool
(** [true] exactly for {!Out_of_memory} and {!No_feasible_tile}: the
    rejections a correct compiler is allowed to produce on valid input
    when the platform is too small. *)

val artifact_digest : artifact -> string
(** Hex digest of the artifact's canonical serialized form (everything
    except [cfg] and the derived execution plan). Compiling the same
    graph under the same config twice — cold, warm from the persistent
    store, or on another machine — must produce the same digest; the CI
    smoke diffs it across a cold and a warm [htvmc compile]. *)

val artifact_store_key : config -> Ir.Graph.t -> string
(** The artifact-tier store key: an injective encoding of the code
    version, every artifact-relevant config field (not [jobs] or
    [solver_cache] — results are deterministic in both) and the graph's
    content digest. Exposed for tests that need to corrupt or inspect a
    specific store entry. *)

val compile :
  ?trace:Trace.t ->
  ?metrics:Metrics.t ->
  ?store:Store.t ->
  config ->
  Ir.Graph.t ->
  (artifact, error) result
(** [Error] carries a typed diagnosis (e.g. the out-of-memory record that
    reproduces Table I's MobileNet OoM under the TVM baseline). When
    [trace] is given, every compiler phase (simplify, partition, lower
    with per-layer ["tiling.solve"] events, fuse, autotune, memplan,
    plan, emit) is recorded as a span on the ["compiler"] track.

    When [metrics] is given, the same phases register
    [htvm_wall_compile_phase_seconds{phase=...}] gauges on the wall
    track, and deterministic solver totals (candidates explored /
    infeasible / pruned, tiling-cache hits/misses, demotions, tuning
    trials) register as counters on the cycles track. Registration is
    strict, so pass a registry that has not seen a compile yet (one
    registry per compile; merge snapshots to aggregate).

    With [cfg.jobs > 1] the per-segment tiling solves and per-kernel
    autotune trials run on a domain pool; trace events are replayed in
    segment order from the calling domain, so the artifact and the trace
    are bit-identical (modulo timestamps) to a [jobs = 1] run.

    When [store] is given, the compile reads and writes the persistent
    content-addressed cache. An artifact-tier hit skips every phase and
    replays the stored artifact (plan rebuilt, solver counters
    registered from the stored stats); otherwise each tiling solve
    consults the layer tier before burning search work, and the
    finished artifact is written back. Warm compiles are byte-identical
    to cold ones: same {!artifact_digest}, same solver stats. Corrupt,
    truncated or version-skewed entries are rejected (counted on the
    store handle), recomputed and overwritten — never served. *)

val run :
  ?trace:Trace.t ->
  ?faults:Fault.Session.t ->
  ?retry_budget:int ->
  ?use_plan:bool ->
  artifact ->
  inputs:(string * Tensor.t) list ->
  Tensor.t * Sim.Machine.report
(** Execute the artifact on the simulated SoC; [trace], [faults] and
    [retry_budget] are forwarded to {!Sim.Machine.run} (omitting
    [faults], or passing a session over the empty plan, changes
    nothing). [use_plan] (default [true]) executes through the artifact's
    compiled {!Sim.Plan} fast path — byte-identical outputs, counters,
    traces and fault-session effects, with or without [faults]; pass
    [false] to force the slow interpretive oracle. With the plan, only
    the accelerator steps after an L2 bit-rot flip run on the oracle
    (the plan's pre-decoded weights cannot see the flip).
    @raise Fault.Session.Unrecovered when an injected fault exhausts the
    retry budget. *)

val full_cycles : Sim.Machine.report -> int
(** End-to-end wall cycles — the paper's "HTVM" latency. *)

val peak_cycles : Sim.Machine.report -> int
(** Accelerator busy cycles plus (unavoidable) CPU kernel cycles — the
    paper's "Peak" latency, which excludes DMA and runtime overhead. *)

val latency_ms : config -> int -> float
(** Cycles to milliseconds at the platform clock. *)
