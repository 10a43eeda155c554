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

val read_byte : t -> int -> int
(** Unsigned byte at an offset. *)

val write_byte : t -> int -> int -> unit
(** Write the low 8 bits of the value. *)

val read_elt : t -> Tensor.Dtype.t -> int -> int
(** Decode one element of the dtype at a byte offset. *)

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

val write_flat_from : t -> Tensor.Dtype.t -> int -> int array -> pos:int -> len:int -> unit
(** [write_flat_from t dt off src ~pos ~len] encodes
    [src.(pos..pos+len-1)] as [len] consecutive elements of dtype [dt] at
    byte offset [off]. Element-for-element equivalent to [write_elt] in a
    loop: each value is range-checked ({!Fault} on violation) and the
    high-water mark advances over the written range (on a violation, over
    the elements written before it). *)

val fill : t -> int -> unit
(** Fill the whole memory with a byte value (tests use a poison pattern). *)

val image : t -> Bytes.t
(** A fresh copy of the full contents — an arena snapshot. *)

val restore : t -> Bytes.t -> hwm:int -> unit
(** Overwrite the contents with a snapshot from {!image} (sizes must
    match) and set the high-water mark to [hwm] — rewinds a reused memory
    to a known state between requests. *)

val flip_bit : t -> off:int -> bit:int -> unit
(** Toggle bit [bit land 7] of the byte at [off] without advancing the
    high-water mark — the fault injector's corruption primitive.
    @raise Fault when [off] is out of bounds. *)
