(** Compiled execution plans: the simulator's per-request fast path.

    [build] resolves, once per artifact, everything {!Exec_accel} recomputes
    per request — tile instance dims, L1 slot layouts, DMA window geometry
    (flattened to coalesced blit lists), weight/bias slice extents (decoded
    to flat arrays straight from the L2 weight image), padded-input shapes,
    per-step counters and the trace timeline — so that the per-request loop
    is pure data movement and kernel math over preallocated scratch.

    Scratch lives in a per-domain {e arena}: reused L2/L1 memories plus
    per-tile padded-input, accumulator and output buffers, reset between
    requests instead of reallocated. A plan is therefore safe to share
    across domains. An arena dies with its plan or its domain, whichever
    goes first.

    Byte-identity contract: for a run of a well-formed program, with or
    without a fault session, the fast path produces exactly the slow
    path's output bytes, per-step cycle counters, trace events, memory
    high-water marks, session stats and [Fault.Session.Unrecovered]
    raises. Under a session each tile consults {!Resilience} in the slow
    path's order, so every draw and silent flip lands where the oracle's
    does. The one thing a plan cannot follow is L2 bit rot in a weight
    image, since it decoded weights and biases at build time:
    {!Machine.run} runs a request's accelerator steps after an L2 rot
    flip through {!Exec_accel} on the same memories. The slow path is
    otherwise reached only through [use_plan:false] / [--no-plan] and the
    tests: it is the conformance oracle ([htvmc check], the golden
    snapshots and the plan differential tests enforce the contract). *)

type t

type stats = {
  accel_steps : int;  (** accelerator steps covered by the plan *)
  tiles : int;  (** precomputed tile instances across all steps *)
  scratch_words : int;  (** per-arena scratch footprint, in [int] words *)
  image_bytes : int;  (** size of the captured L2 weight image *)
}

val build : platform:Arch.Platform.t -> Program.t -> t
(** Resolve the program against the platform. Performs the slow path's
    per-run validation eagerly; malformed steps are recorded and re-raised
    with the slow path's exception when the step is executed.
    @raise Invalid_argument when the program fails {!Program.validate}.
    @raise Mem.Fault when a weight or bias image lies outside L2. *)

val program : t -> Program.t
(** The program this plan was built for ({!Machine.run} enforces physical
    equality). *)

val stats : t -> stats

val checkout : ?fresh:bool -> t -> Mem.t * Mem.t
(** [(l2, l1)] of the calling domain's arena, rewound to the exact state a
    fresh {!Machine.run} would build: L2 holding the weight images with its
    post-load high-water mark, L1 poisoned with [0x5A]. The first call in a
    domain allocates the arena; [~fresh:true] discards any cached arena and
    allocates anew (benchmarks use it to measure the no-reuse path). *)

val run_accel_step :
  t ->
  step_index:int ->
  l2:Mem.t ->
  l1:Mem.t ->
  ?trace:Trace.t ->
  ?faults:Fault.Session.t ->
  ?retry_budget:int ->
  t0:int ->
  unit ->
  Counters.t
(** Execute the accelerator step at [step_index] of the plan's program: re-
    play the precomputed DMA blits, run the flat kernels over the domain
    arena's scratch, encode the result, replay the recorded trace timeline
    shifted to cycle [t0], and return a fresh copy of the step's counters.
    With an active [faults] session every tile is guarded like
    {!Exec_accel.run}'s ([retry_budget], default 3): the counters gain
    the fault fields and [wall] their [retry_cycles + fault_stall], and
    the fault events follow the timeline on the ["fault"] track.
    @raise Fault.Session.Unrecovered past the retry budget.
    @raise Invalid_argument when the step is a CPU step.
    @raise Mem.Fault / [Invalid_argument] with the slow path's exception
    when the step was recorded as malformed at build time. *)
