(** Depth-first (fused) execution of convolution layer pairs.

    The paper's background (Sec. II-B) contrasts DORY's layer-by-layer
    tiling with depth-first execution (MCUNetv2 [11], Goetschalckx's
    enhanced depth-first [12]) that trades recompute for peak-memory
    reduction. This module plans such a fusion for a pair of back-to-back
    convolution layers: the pair's intermediate activation never
    materializes in L2 — full-width row stripes of it live briefly in L1
    while the second layer consumes them, with halo rows recomputed per
    stripe.

    The executor lives in {!Sim.Exec_chain}; results are bit-exact against
    running the two layers sequentially (each output stripe is computed
    from the input alone). *)

type t = {
  first : Ir.Layer.t;
  second : Ir.Layer.t;
  stripe_rows : int;  (** rows of the second layer's output per stripe *)
  stripes : int;
}

(* Planning: *)

val l1_stripe_bytes : t -> int
(** L1 bytes one stripe needs: input window + intermediate window + output
    stripe. *)

val plan : l1_budget:int -> Ir.Layer.t -> Ir.Layer.t -> (t, string) result
(** Choose the tallest stripe whose working set fits the budget. [Error]
    also when the pair cannot chain: both must be plain convolutions (no
    fused pools) with chained shapes and an int8-out intermediate. *)

val mid_rows_for : t -> int -> int * int * int * int
(** [(mid_lo, mid_valid, pad_top, pad_bottom)] of the intermediate rows
    the stripe starting at final-output row [o0] consumes. *)

val in_rows_for : t -> int -> int * int * int * int
(** Same for the input rows the stripe's intermediate rows require. *)

val recompute_factor : t -> float
(** Intermediate rows computed (with halo overlap) divided by the
    intermediate's true height — the depth-first recompute overhead. *)

val l2_peak_fused : t -> int
(** Peak L2 activation bytes with the fused pair (input + final output —
    the intermediate is gone). *)

val l2_peak_sequential : t -> int
(** Peak L2 activation bytes of the layer-by-layer schedule of the pair. *)
