(** Small integer helpers shared across the compiler and simulator. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is the smallest [n] with [n * b >= a]. Requires
    [a >= 0] and [b > 0] (asserted): the truncated-toward-zero formula
    would silently mis-round negative numerators. *)

val round_up : int -> int -> int
(** [round_up a b] rounds [a] up to the next multiple of [b]. Requires
    [a >= 0] and [b > 0] (asserted). *)

val clamp : lo:int -> hi:int -> int -> int
(** Saturate a value into the inclusive range [\[lo, hi\]]. *)

val log2_ceil : int -> int
(** Smallest [k] such that [2^k >= n], for [n >= 1]. *)

val divisors : int -> int list
(** All positive divisors of a positive integer, ascending. *)

val kib : int -> int
(** [kib n] is [n * 1024] — byte count of [n] KiB. *)
