(** Normalized accelerator-offloadable layers.

    The partitioner collapses a matched operator pattern (e.g.
    Conv2D-BiasAdd-ReQuant-ReLU) into one [Layer.t]: the coarse-grained
    unit an accelerator executes with a single instruction stream and the
    unit DORY tiles. Accelerator capability rules (lib/arch) judge layers,
    not raw graph nodes. *)

type kind =
  | Conv of Nn.Kernels.conv_params  (** includes depthwise via [groups] *)
  | Dense
  | Add  (** residual addition of two activations *)
  | Pool of { max : bool; attrs : Op.pool_attrs }

type t = {
  kind : kind;
  fused_pool : Op.pool_attrs option;
      (** a max pooling fused into the accelerator's output stage (DIANA
          executes "some pooling operations at the output", Sec. III-C);
          only valid on [Conv], with non-overlapping windows. [out_shape]
          is the pooled shape. Exact because requantization is monotone,
          so pool-after-requant equals the matched requant-then-pool. *)
  weights : Tensor.t option;  (** conv/dense weights *)
  bias : Tensor.t option;     (** per-channel i32 bias *)
  shift : int option;         (** requantization right-shift; [None] = raw i32 out *)
  relu : bool;                (** clip to [\[0, max\]] during requantization *)
  in_shape : int array;       (** primary data input *)
  in2_shape : int array option;  (** second input ([Add] only) *)
  out_shape : int array;
  in_dtype : Tensor.Dtype.t;
  out_dtype : Tensor.Dtype.t;
}

val weight_dtype : t -> Tensor.Dtype.t option
(** Dtype of the weights, when the layer has any — the paper's dispatch
    criterion (8-bit -> digital, ternary -> analog). *)

val is_depthwise : t -> bool
val macs : t -> int
(** Multiply-accumulate count of one execution — for fused-pool layers the
    convolution work in pre-pool space. [Add]/[Pool] count one MAC per
    produced element. *)

val kernel_dims : t -> int * int
(** Filter (fy, fx); (1, 1) for non-convolutions. *)

val describe : t -> string
(** Short human-readable summary, e.g. [conv2d 16x32x32 -> 32x16x16 k3x3 s2]. *)

val signature : t -> string
(** Everything a cost model can observe of the layer: kind and its
    attributes, fused pool, shapes, dtypes, the weight and bias dtypes
    and shapes, shift and relu, but never tensor contents. An injective
    {!Util.Key} encoding, so layers that tile and tune alike share it. *)

val execute : t -> ?second:Tensor.t -> Tensor.t -> Tensor.t
(** Reference semantics of the whole fused layer (conv/dense/add/pool,
    bias, requantize). Differential tests compare every tiled accelerator
    execution against this. *)

val validate : t -> (unit, string) result
(** Internal-consistency checks: shape arithmetic, weights presence,
    bias/shift applicability. *)
