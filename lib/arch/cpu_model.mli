(** Host-CPU cycle model.

    Models a scalar/SIMD MCU core running TVM-style generated C kernels.
    Per-operator costs are expressed in cycles per MAC (for compute-bound
    kernels) or cycles per element (for memory-bound elementwise ones),
    plus a per-kernel call overhead. Instances for DIANA's RISC-V and the
    Table II rival platforms live in {!Diana} and {!Rivals}. *)

type t = {
  cpu_name : string;
  conv_cycles_per_mac : float;
  dense_cycles_per_mac : float;
  depthwise_cycles_per_mac : float;
  elementwise_cycles_per_elt : float;  (** add/relu/requant chains *)
  pool_cycles_per_elt : float;         (** per input element visited *)
  softmax_cycles_per_elt : float;
  data_move_cycles_per_byte : float;   (** reshape/layout copies *)
  kernel_call_overhead : int;          (** prologue + dispatch per kernel *)
}

val op_cycles : t -> Ir.Op.t -> Ir.Infer.ty list -> Ir.Infer.ty -> int
(** Cycles for one operator application given argument and result types
    (excluding the per-kernel call overhead, which is charged once per
    fused kernel). *)
