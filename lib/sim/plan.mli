(** Compiled execution plans: the simulator's per-request fast path.

    [build] resolves, once per artifact, everything {!Exec_accel} recomputes
    per request — tile instance dims, L1 slot layouts, DMA window geometry
    (flattened to coalesced blit lists), the L2 extents of each tile's
    weight and bias slices, padded-input shapes, per-step counters and the
    trace timeline — so that the per-request loop is pure data movement and
    kernel math over preallocated scratch. Like the oracle, a tile reads
    its weights and bias from the L2 it runs on, checking each slice once
    and decoding with {!Mem.read_flat_into} (a conv filter row at a
    time), {!Mem.dot} and {!Mem.read_elt}. The conv kernel packs the sums
    of several output channels into one [int], in lanes [build] sizes so
    that no sum can overflow its lane, so one multiply-add serves them
    all.

    The weight images are loaded once per plan, as the paper's deployment
    loads its accelerator constants before the first inference: [build]
    takes only their extent and reads no weight value; the plan's first
    {!checkout}, in any domain, encodes them ({!Mem.encode_image}), and
    every checkout restores L2 from those bytes.

    Scratch lives in a per-domain {e arena}: reused L2/L1 memories,
    per-tile padded-input, accumulator and output buffers, and one buffer
    for the conv kernel's decoded weight rows, reset between requests
    instead of reallocated. A plan is therefore safe to share
    across domains. An arena dies with its plan or its domain, whichever
    goes first.

    Byte-identity contract: for a run of a well-formed program, with or
    without a fault session, the fast path produces exactly the slow
    path's output bytes, per-step cycle counters, trace events, memory
    high-water marks, session stats and [Fault.Session.Unrecovered]
    raises. Under a session each tile consults {!Resilience} in the slow
    path's order, so every draw and silent flip lands where the oracle's
    does; L2 bit rot and a program's own writes over a weight image reach
    both paths alike, since both read the same L2 bytes. The slow path is
    reached only through [use_plan:false] / [--no-plan] and the tests: it
    is the conformance oracle ([htvmc check], the golden snapshots and the
    plan differential tests enforce the contract). *)

type t

type stats = {
  accel_steps : int;  (** accelerator steps covered by the plan *)
  tiles : int;  (** precomputed tile instances across all steps *)
  scratch_words : int;
      (** per-arena scratch footprint, in [int] words: the per-tile
          buffers plus the weight-row buffer, sized to the largest
          lanes x taps of the plan's conv tiles *)
  image_bytes : int;
      (** extent of the weight images in L2, known at build before any
          run: the largest [off + Tensor.sim_bytes t] over the program's
          [weight_images], 0 when there are none; the L2 high-water mark
          after the preload, and the length of the bytes {!checkout}
          encodes *)
}

val build : platform:Arch.Platform.t -> Program.t -> t
(** Resolve the program against the platform. Performs the slow path's
    per-run validation eagerly; malformed steps are recorded and re-raised
    with the slow path's exception when the step is executed. A weight or
    bias slice outside L2 is no build error: running its step raises the
    slow path's {!Mem.Fault}. Nor is a weight value out of its dtype's
    range: [build] encodes no weight, so the run's {!checkout} raises the
    slow path's preload fault.
    @raise Invalid_argument when the program fails {!Program.validate}.
    @raise Mem.Fault when a preloaded weight image lies outside L2, with
    the slow path's preload fault (the first its preload raises). *)

val program : t -> Program.t
(** The program this plan was built for ({!Machine.run} enforces physical
    equality). *)

val stats : t -> stats

val service_cycles : t -> int
(** The program's fault-free service cycles, fixed at build time: the
    sum of every accelerator step's modeled wall and every CPU step's
    [cycles]. No step's timing depends on the data it moves, so a run
    without a fault session (or with one over {!Fault.Plan.empty})
    reports exactly this [totals.wall] on either path, for every input.
    A step recorded as malformed counts 0; its run raises instead. *)

val checkout : t -> Mem.t * Mem.t
(** [(l2, l1)] of the calling domain's arena, rewound to the exact state a
    fresh {!Machine.run} would build: L2 holding the weight prefix, zeroed
    past it, with its post-load high-water mark, L1 poisoned with [0x5A].
    The plan's first call, in any domain, encodes the weight images; two
    domains racing on it both encode the same bytes, and one copy is
    kept. The first call in a domain allocates the arena; later calls
    reuse it.
    @raise Mem.Fault with the slow path's preload fault when a weight
    value lies outside its dtype's range (on every call). *)

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
    arena's scratch (reading weights and biases from [l2]), encode the
    result, replay the recorded trace timeline
    shifted to cycle [t0], and return a fresh copy of the step's counters.
    With an active [faults] session every tile is guarded like
    {!Exec_accel.run}'s ([retry_budget], default 3): the counters gain
    the fault fields and [wall] their [retry_cycles + fault_stall], and
    the fault events follow the timeline on the ["fault"] track.
    @raise Fault.Session.Unrecovered past the retry budget.
    @raise Invalid_argument when the step is a CPU step.
    @raise Mem.Fault with the slow path's message when a weight or bias
    slice lies outside [l2].
    @raise Mem.Fault / [Invalid_argument] with the slow path's exception
    when the step was recorded as malformed at build time. *)
