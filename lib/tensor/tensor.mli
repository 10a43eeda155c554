(** Dense integer tensors.

    A tensor couples a dtype, a shape, and a flat row-major [int] payload.
    Activations use CHW order ([|channels; height; width|]), convolution
    weights KCFyFx, fully-connected weights KC. Every write is
    range-checked against the dtype, so an out-of-range accumulator or a
    mis-quantized kernel fails loudly in tests instead of silently
    wrapping. *)

module Dtype : module type of Dtype
(** Re-export: element types (see {!module:Dtype}). *)

type t

val create : Dtype.t -> int array -> t
(** Zero-initialized tensor of the given shape. Dimensions must be
    positive; the shape array is copied. *)

val of_array : Dtype.t -> int array -> int array -> t
(** [of_array dtype shape data] wraps (a copy of) [data], validating length
    and element ranges.
    @raise Invalid_argument on shape/data mismatch or range violation. *)

val scalar : Dtype.t -> int -> t
(** Rank-0 tensor holding one value. *)

val dtype : t -> Dtype.t
val shape : t -> int array
(** The shape (a fresh copy). *)

val rank : t -> int
val numel : t -> int

val dim : t -> int -> int
(** [dim t i] is the size of axis [i].
    @raise Invalid_argument if [i] is out of bounds. *)

val sim_bytes : t -> int
(** Footprint of the tensor in the simulator's byte memories. *)

val packed_bytes : t -> int
(** Footprint in a deployed binary's constant section (ternary packs to
    2 bits/element, rounded up to whole bytes). *)

val get : t -> int array -> int
(** Multi-dimensional read. Indices are bounds-checked. *)

val set : t -> int array -> int -> unit
(** Multi-dimensional write; the value must be in the dtype's range. *)

val get_flat : t -> int -> int
val set_flat : t -> int -> int -> unit

val unsafe_data : t -> int array
(** The live flat payload itself, not a copy. Writing through it skips the
    dtype range check, so it is reserved for hot paths that re-establish
    the invariant themselves (the execution-plan kernels clamp every value
    before it lands). Aliases the tensor for its whole lifetime. *)

val fill : t -> int -> unit
(** Set every element to a (range-checked) value. *)

val reshape : t -> int array -> t
(** Same payload viewed under a new shape with equal element count. The
    result shares storage with the argument. *)

val cast : Dtype.t -> t -> t
(** Element-wise saturating conversion into another dtype (fresh tensor). *)

val map : (int -> int) -> t -> t
(** Fresh tensor with [f] applied to every element (range-checked under the
    same dtype). *)

val map2 : Dtype.t -> (int -> int -> int) -> t -> t -> t
(** Pointwise combination of two same-shaped tensors into a fresh tensor of
    the given dtype. *)

val iteri_flat : (int -> int -> unit) -> t -> unit
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

val equal : t -> t -> bool
(** Structural equality: dtype, shape and every element. *)

val digest : t -> string
(** MD5 hex over the dtype, the shape and every element, so equal
    tensors have equal digests. Serving tallies and the conformance
    goldens record outputs by it. *)

val random : Util.Rng.t -> Dtype.t -> int array -> t
(** Tensor of uniform random values drawn from the dtype's full range
    (ternary uses the sparse ternary distribution of {!Util.Rng.ternary}). *)

val max_abs_diff : t -> t -> int
(** Largest absolute element-wise difference between two same-shaped
    tensors (ignores dtype). *)

val pp : Format.formatter -> t -> unit
(** Summary printer: dtype, shape, and a digest of the payload. *)

val to_string : t -> string
