(** The SoC machine: runs a {!Program.t} on a platform.

    Instantiates byte-level L1/L2 memories, preloads weight images, binds
    the network inputs, executes every step (accelerator schedules through
    {!Exec_accel}, fused CPU kernels through the reference interpreter
    with modeled cycles), and reads the output buffer back. The returned
    report carries per-step and aggregate counters for the latency tables. *)

type report = {
  per_step : (string * Counters.t) list;  (** in execution order *)
  totals : Counters.t;
}

val run :
  platform:Arch.Platform.t ->
  ?trace:Trace.t ->
  ?faults:Fault.Session.t ->
  ?retry_budget:int ->
  ?plan:Plan.t ->
  Program.t ->
  inputs:(string * Tensor.t) list ->
  Tensor.t * report
(** Execute the program on fresh memories through the slow oracle path —
    or, when [plan] is given (it must have been built for this very
    program, physical equality), on the calling domain's reused plan
    arena via the compiled fast path, with byte-identical outputs,
    counters, traces and high-water marks, fault session or not. Both
    paths read each step's weights and biases from the run's L2, so L2
    bit rot reaches the plan exactly as it reaches the oracle.

    When [trace] is given, each
    step contributes one interval on the ["steps"] track (whose summed
    durations equal [totals.wall]), per-tile engine/DMA intervals via
    {!Exec_accel}, and L1/L2 occupancy high-water samples on the ["mem"]
    track. Tracing never changes the computation: outputs and counters
    are bit-identical with and without it.

    When [faults] is given, the run becomes an injection campaign: every
    DMA transfer, weight load and tile compute consults the plan (see
    {!Resilience}), and once per step each memory may suffer bit rot in
    its occupied region. A session backed by {!Fault.Plan.empty} — or
    omitting [faults] — is a strict no-op: identical outputs, counters
    and trace events. [retry_budget] (default 3) bounds re-issues per
    operation.
    @raise Fault.Session.Unrecovered when a detected fault exhausts the
    retry budget (the modeled runtime aborts rather than return corrupt
    data). @raise Invalid_argument on missing/mistyped inputs or a
    malformed program. @raise Mem.Fault on memory corruption (a compiler
    bug). *)
