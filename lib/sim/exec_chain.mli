(** Executor for depth-first fused convolution pairs ({!Dory.Chain}).

    Streams full-width stripes: DMA an input window into L1, run the first
    convolution (halo rows recomputed per stripe), keep the intermediate
    stripe in L1 only, run the second convolution, DMA the final stripe
    back to L2. The intermediate tensor never exists in L2. Bit-exact
    against the sequential execution of the two layers. *)

type buffers = {
  in_offset : int;   (** L2 offset of the pair's input *)
  out_offset : int;  (** L2 offset of the pair's final output *)
  w1_offset : int;
  b1_offset : int;   (** -1 when the first layer has no bias *)
  w2_offset : int;
  b2_offset : int;
}

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
  Dory.Chain.t ->
  Counters.t
(** When [trace] is given, per-stripe DMA/compute intervals are recorded
    on the simulated clock starting at cycle [t0]. When [faults] is
    given, the pair's weight load and each stripe's transfers/computes
    consult the plan exactly as in {!Exec_accel.run}.
    @raise Fault.Session.Unrecovered past the retry budget.
    @raise Mem.Fault on out-of-bounds plans. *)
