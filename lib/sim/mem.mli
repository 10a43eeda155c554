(** Byte-addressable simulated memories.

    L1, L2 and the accelerator weight memories are real byte arrays in the
    simulator: every activation, weight and bias round-trips through them,
    so planner or codegen bugs (overlapping buffers, wrong offsets, bad
    strides) corrupt data and fail the differential tests instead of going
    unnoticed. Multi-byte values are little-endian; ternary elements are
    stored one signed byte each (see DESIGN.md). *)

type t

val create : string -> int -> t
(** [create name size_bytes] returns a zero-filled memory. *)

val name : t -> string
val size : t -> int

val high_water : t -> int
(** Highest byte offset ever written past (element writes and DMA blits;
    {!fill}'s poison pattern does not count) — the occupancy high-water
    mark sampled by the trace's memory timeline. *)

val reset_high_water : t -> unit

exception Fault of string
(** Raised on any out-of-bounds access, with the memory name, offset and
    access size. *)

val check : t -> int -> int -> unit
(** [check t off len] raises {!Fault} — with the message every accessor
    raises — unless the [len] bytes at [off] lie inside the memory. *)

val read_elt : t -> Tensor.Dtype.t -> int -> int
(** Decode one element of the dtype at a byte offset: little-endian,
    sign-extended, and a ternary byte outside [{-1,0,1}] (bit rot) folded
    back into range. *)

val write_elt : t -> Tensor.Dtype.t -> int -> int -> unit
(** Encode one (range-checked) element at a byte offset. *)

val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
(** Raw byte copy (the DMA's contiguous-chunk primitive). *)

val write_tensor : t -> int -> Tensor.t -> unit
(** Serialize a whole tensor row-major at a byte offset. *)

val read_tensor : t -> int -> Tensor.Dtype.t -> int array -> Tensor.t
(** Deserialize a tensor of the given dtype/shape from a byte offset. *)

val read_flat_into : t -> Tensor.Dtype.t -> int -> int array -> pos:int -> len:int -> unit
(** [read_flat_into t dt off dst ~pos ~len] decodes [len] consecutive
    elements of dtype [dt] starting at byte offset [off] into
    [dst.(pos..pos+len-1)]. Element-for-element equivalent to [read_elt]
    in a loop (same sign extension and ternary rot fold) with a single
    up-front bounds check — the execution plan's bulk decode primitive. *)

val dot : t -> Tensor.Dtype.t -> int -> int array -> len:int -> int
(** [dot t dt off v ~len] is the sum over [i < len] of [v.(i)] times
    element [i] of the [dt] vector at byte offset [off], each element
    decoded as {!read_elt} would, inside the dot loop — a dense layer's
    weight row against its input. One up-front bounds check. *)

val write_flat_from : t -> Tensor.Dtype.t -> int -> int array -> pos:int -> len:int -> unit
(** [write_flat_from t dt off src ~pos ~len] encodes
    [src.(pos..pos+len-1)] as [len] consecutive elements of dtype [dt] at
    byte offset [off]. Element-for-element equivalent to [write_elt] in a
    loop: each value is range-checked ({!Fault} on violation) and the
    high-water mark advances over the written range (on a violation, over
    the elements written before it). *)

val fill : t -> int -> unit
(** Fill the whole memory with a byte value (tests use a poison pattern). *)

val encode_image : string -> int -> (int * Tensor.t) list -> Bytes.t
(** [encode_image name size images] is the byte image of a fresh
    [size]-byte memory named [name] after {!write_tensor} of each
    [(off, tensor)] of [images], in order: that memory's own bytes, not a
    copy, zero wherever no image lies. [size] may be 0 (no images). The
    execution plan sizes it to the images' extent and encodes once, on its
    first checkout; the oracle ({!Machine.run} without a plan) writes the
    images into its L2 on every run instead.
    @raise Fault with {!write_tensor}'s message at the first image that
    lies outside [[0, size)] or holds a value out of its dtype's range.
    @raise Invalid_argument when [size] is negative. *)

val restore : t -> Bytes.t -> unit
(** [restore t img] writes the image [img] (from {!encode_image}) at
    offset 0, zeroes the rest and sets the high-water mark to its length:
    the state of a fresh memory after the writes that produced [img] —
    rewinds a reused memory between requests.
    @raise Invalid_argument when [img] is longer than the memory. *)

val flip_bit : t -> off:int -> bit:int -> unit
(** Toggle bit [bit land 7] of the byte at [off] without advancing the
    high-water mark — the fault injector's corruption primitive.
    @raise Fault when [off] is out of bounds. *)
