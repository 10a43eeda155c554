(** Random quantized-network and deployment-configuration generator.

    The differential-conformance workhorse: builds arbitrary-but-valid
    graphs in the operator vocabulary the HTVM flow supports (conv /
    depthwise / dense blocks with random geometry, precision, stride and
    activation; residual adds; poolings; channel concatenations; softmax
    heads) and pairs them with random deployment configurations
    (platform choice, shrunken L1, planner strategy, engine knobs).
    Everything is a pure function of the integer seed, so any case — and
    any failure — replays from one number.

    Promoted out of [test/] so the library-level checker ({!Verdict},
    {!Shrink}, [htvmc check]) and the test suites share one generator. *)

val generate : int -> Ir.Graph.t
(** A random valid graph: a spatial trunk of 2–6 blocks followed by an
    optional flatten/dense/softmax classifier head (forced when every
    trunk block aborts, so the result always has at least one operator
    application). Deterministic per seed. *)

val random_config : int -> Htvm.Compile.config
(** A random deployment configuration for the same seed space: one of
    the five platforms (DIANA cpu/digital/analog/full, NOVA), sometimes
    with L1 shrunk to 2–32 KiB so tiling paths are exercised end to end,
    random planner strategy, buffering, heuristic, autotuning and [jobs]
    knobs. Never degrades a target — that is {!chaos_config}'s job. *)

val random_fault_plan : int -> Fault.Plan.t
(** A random {e recoverable} fault plan for [htvmc chaos]: 1–3 rules over
    distinct sites, detected kinds (transfer drop/flip, weight-load
    drop/flip, compute drop) and stalls only, sparse [every]/[nth]
    triggers. Under the default retry budget every injected fault is
    either retried successfully or merely stalls, so the only chaos
    verdicts on stock campaigns are pass / recovered / degraded — a
    [detected_uncorrected] or [silent_corruption] verdict indicts the
    resilience machinery, not the dice. Deterministic per seed; the
    plan's session seed is [seed] itself. *)

val chaos_config : int -> Htvm.Compile.config
(** {!random_config}, with roughly a quarter of the campaigns taking one
    of the platform's accelerators offline ([degraded_targets]) so the
    compiler's fallback ladder is exercised under chaos too. *)
