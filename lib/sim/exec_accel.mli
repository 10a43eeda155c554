(** Functional + timed execution of a DORY schedule on an accelerator.

    Every tile instance really moves bytes: input windows are DMA-copied
    from the L2 activation arena into L1, the tile is computed from the L1
    bytes and the L2-resident weight/bias bytes, and the output slice is
    DMA-copied back — so the produced activations are exactly what the
    hardware would produce, and any offset error corrupts the output.

    Timing follows the platform's DMA model and the accelerator's cycle
    models; with double buffering the wall clock overlaps each tile's
    compute with its neighbours' transfers. *)

type buffers = {
  in_offsets : int list;  (** L2 offsets of the data inputs (1, or 2 for Add) *)
  out_offset : int;       (** L2 offset of the output buffer *)
  weights_offset : int;   (** L2 offset of the packed weights; -1 when none *)
  bias_offset : int;      (** L2 offset of the i32 bias; -1 when none *)
}

type l1_layout = { in_size : int; out_size : int; slots : int }
(** The schedule's L1 scratch layout: [slots] (1, or 2 under double
    buffering) input blocks of [in_size] bytes followed by [slots] output
    blocks of [out_size] bytes. *)

val layout_of : Dory.Schedule.t -> l1_layout

val in_base : l1_layout -> int -> int
(** L1 offset of the input block for a tile slot (slots alternate under
    double buffering). *)

val out_base : l1_layout -> int -> int
(** L1 offset of the output block for a tile slot. *)

val window_walk :
  elt_bytes:int ->
  l2_off:int ->
  l1_off:int ->
  full_h:int ->
  full_w:int ->
  ch0:int ->
  y0:int ->
  x0:int ->
  chans:int ->
  rows:int ->
  cols:int ->
  (int -> int -> int -> unit) ->
  int * int
(** [window_walk ... f] walks the DMA of a [chans x rows x cols] window at
    [(ch0, y0, x0)] of a CHW tensor with rows of [full_w] and planes of
    [full_h] rows at [l2_off], against a dense block at [l1_off]: it calls
    [f l2_pos l1_pos len] once per contiguous run, not once per row, in
    row order — one run per row when [cols < full_w], one per channel for
    whole rows, one for whole planes. The runs cover exactly the bytes,
    in exactly the order, of the row-by-row walk. It returns
    [(chunks, bytes)] for {!Arch.Memory.transfer_cycles} (a window of whole
    rows is one chunk per channel). The slow path passes {!Mem.blit}; the
    execution plan records the same blits, in the same order, at build
    time. *)

val timeline :
  double_buffer:bool ->
  engine:string ->
  overhead:int ->
  t0:int ->
  din:int array ->
  wls:int array ->
  ccs:int array ->
  dout:int array ->
  bin:int array ->
  bout:int array ->
  emit:
    (track:string ->
    ts:int ->
    dur:int ->
    args:(string * Trace.Json.t) list ->
    string ->
    unit) ->
  int
(** Reconstruct the step's fault-free wall clock from per-tile DMA-in,
    weight-load, compute and DMA-out cycle arrays (and byte counts for the
    trace args), calling [emit] for every interval — the setup span on the
    ["host"] track, transfers on ["dma"], engine work on [engine] — exactly
    as {!run} places them. Shared by {!run} and the execution plan, which
    records the intervals once at build time and replays them per request. *)

val run :
  platform:Arch.Platform.t ->
  accel:Arch.Accel.t ->
  l2:Mem.t ->
  l1:Mem.t ->
  buffers:buffers ->
  ?trace:Trace.t ->
  ?t0:int ->
  ?faults:Fault.Session.t ->
  ?retry_budget:int ->
  Dory.Schedule.t ->
  Counters.t
(** Execute the layer in place (reads input buffers, writes the output
    buffer) and return its counters. When [trace] is given, per-tile
    [dma_in]/[weight_load]/[compute]/[dma_out] intervals are recorded on
    the DMA and engine tracks, placed on the simulated clock starting at
    cycle [t0] (default 0) exactly as the wall-clock model overlaps them.

    When [faults] is given, every tile's DMA transfers, weight load and
    computation consult the plan through {!Resilience}: detected faults
    are retried up to [retry_budget] (default 3) times per operation,
    extending [wall] by [retry_cycles + fault_stall] past the fault-free
    value; silent flips really corrupt the simulated bytes. Injected
    effects appear on the ["fault"] trace track.
    @raise Fault.Session.Unrecovered when a detected fault persists past
    the retry budget.
    @raise Mem.Fault on any out-of-bounds access.
    @raise Invalid_argument on malformed buffer descriptors. *)
