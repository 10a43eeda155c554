(** Performance counters.

    Mirrors the paper's measurement methodology (Sec. IV): "peak" is the
    accelerator busy time including the weight transfer orchestrated by
    the layer instruction; the "full kernel call" additionally includes
    activation DMA, per-tile host overhead and the runtime's per-call
    setup. CPU kernels accumulate separately. *)

type t = {
  mutable accel_compute : int;   (** array busy cycles *)
  mutable weight_load : int;     (** weight-memory fill cycles *)
  mutable dma_in : int;
  mutable dma_out : int;
  mutable host_overhead : int;   (** runtime setup + tile-loop bookkeeping *)
  mutable cpu_compute : int;     (** host-executed kernel cycles *)
  mutable stall : int;
      (** wall cycles where no engine was busy: exposed (non-overlapped)
          DMA time and pipeline bubbles *)
  mutable dma_bytes_in : int;    (** activation bytes moved L2 -> L1 *)
  mutable dma_bytes_out : int;   (** activation bytes moved L1 -> L2 *)
  mutable faults_detected : int;
      (** injected faults the modeled runtime caught (payload checksum
          mismatch or compute watchdog) and handled by retrying *)
  mutable faults_silent : int;
      (** injected corruptions nothing in the runtime can observe *)
  mutable retries : int;         (** operations re-issued after detection *)
  mutable retry_cycles : int;
      (** cycles spent on re-issues: back-off plus the repeated
          operation's modeled cost. Base counters ([dma_in],
          [accel_compute], ...) keep their fault-free values, so
          [wall = fault_free_wall + retry_cycles + fault_stall]. *)
  mutable fault_stall : int;     (** cycles injected by [Stall] fault kinds *)
  mutable wall : int;
      (** end-to-end cycles; with double buffering this is less than the
          sum of the parts because DMA hides behind compute *)
}

val create : unit -> t
val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc] (all fields, including wall). *)

val fields : t -> (string * int) list
(** Every counter as a (name, value) pair, in declaration order — the
    canonical enumeration metrics exporters iterate so a new counter
    field shows up everywhere by updating one list. *)

val peak : t -> int
(** Accelerator busy cycles: compute + weight load. *)

val utilization : t -> float
(** Busy fraction of wall time: (accelerator busy + CPU compute) / wall,
    0 when no cycles were counted. *)

val pp : Format.formatter -> t -> unit
