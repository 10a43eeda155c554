(** Reference integer kernels.

    These are the ground truth of the whole reproduction: every lowering
    path — TVM-style fused CPU kernels and DORY-tiled accelerator schedules
    alike — must produce bit-identical results to these functions. They are
    written for clarity, not speed.

    Layout conventions (batch size is always 1):
    - activations: [|c; h; w|]
    - convolution weights: [|k; c_per_group; fy; fx|]
    - fully-connected weights: [|k; c|]
    - biases: [|k|] as I32. *)

type conv_params = {
  stride : int * int;      (** (stride_y, stride_x) *)
  padding : int * int;     (** symmetric (pad_y, pad_x), zero-padded *)
  groups : int;            (** 1 = dense conv, = channels for depthwise *)
}

val conv_default : conv_params
(** stride (1,1), padding (0,0), groups 1. *)

val conv_out_dims : in_dims:int * int -> kernel:int * int -> conv_params -> int * int
(** Output (height, width) of a convolution over an input of the given
    spatial size. *)

val conv2d : input:Tensor.t -> weights:Tensor.t -> conv_params -> Tensor.t
(** Exact int32-accumulated 2D convolution. [input] channels must equal
    [groups * c_per_group]; [k] must be a multiple of [groups]. Any integer
    input/weight dtypes are accepted (I8, U7, Ternary, ...). *)

val dense : input:Tensor.t -> weights:Tensor.t -> Tensor.t
(** Fully-connected layer: input [|c|], weights [|k; c|], output [|k|] I32. *)

val bias_add : Tensor.t -> Tensor.t -> Tensor.t
(** [bias_add acc bias] adds a per-channel I32 bias ([|k|]) to an I32
    accumulator of shape [|k; ...|] (broadcast over trailing axes). *)

val requantize : ?relu:bool -> shift:int -> out_dtype:Tensor.Dtype.t -> Tensor.t -> Tensor.t
(** The paper's ReQuant sequence (Listing 1): arithmetic right shift by
    [shift], clip to the output dtype's range (to [\[0, max\]] when [relu]),
    cast. Operates on I32/I16 accumulators. *)

val relu : Tensor.t -> Tensor.t
(** Elementwise [max 0]. *)

val add : Tensor.t -> Tensor.t -> Tensor.t
(** Elementwise residual addition of two same-shaped tensors into an I32
    tensor (callers requantize afterwards). *)

val max_pool : pool:int * int -> stride:int * int -> Tensor.t -> Tensor.t
(** Max pooling over non-padded windows; output dtype equals input dtype. *)

val avg_pool : pool:int * int -> stride:int * int -> Tensor.t -> Tensor.t
(** Average pooling (sum then truncating division by window size), output
    dtype equals input dtype. *)

val global_avg_pool : Tensor.t -> Tensor.t
(** Spatial mean per channel: [|c; h; w|] -> [|c; 1; 1|]. *)

val softmax : Tensor.t -> Tensor.t
(** Integer softmax over a [|k|] I8 tensor: returns I8 scores in [\[0,127\]]
    computed via a deterministic fixed-point exponential; preserves argmax. *)

val concat_channels : Tensor.t -> Tensor.t -> Tensor.t
(** Concatenate two CHW activations of identical dtype and spatial dims
    along the channel axis. *)

val flatten : Tensor.t -> Tensor.t
(** View the tensor as rank-1. *)
