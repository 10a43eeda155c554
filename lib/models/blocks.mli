(** Quantized layer-block builders shared by the model zoo.

    Every block emits the Listing-1 operator sequence (anchor op, bias
    add, right-shift requantization, optional ReLU clip) with seeded
    synthetic weights, so the pattern matcher sees exactly the graphs the
    paper's front end produces. Requantization shifts are sized from the
    receptive field so activations stay well-distributed. *)

type ctx

val create : ?seed:int -> Policy.t -> ctx
val builder : ctx -> Ir.Graph.Builder.t

val input : ctx -> name:string -> int array -> Ir.Graph.id
(** int8 network input. *)

val conv :
  ctx ->
  role:Policy.role ->
  ?relu:bool ->
  ?stride:int * int ->
  ?padding:int * int ->
  in_channels:int ->
  out_channels:int ->
  kernel:int * int ->
  Ir.Graph.id ->
  Ir.Graph.id
(** conv + bias + requant(+relu) with policy-selected weight dtype. *)

val depthwise :
  ctx ->
  ?relu:bool ->
  ?stride:int * int ->
  ?padding:int * int ->
  channels:int ->
  kernel:int * int ->
  Ir.Graph.id ->
  Ir.Graph.id

val dense :
  ctx ->
  role:Policy.role ->
  ?relu:bool ->
  in_features:int ->
  out_features:int ->
  Ir.Graph.id ->
  Ir.Graph.id
(** Fully-connected block over a rank-1 input. When the policy demands
    FC-as-conv (ternary FCs for the analog core), the input is reshaped
    to [|c;1;1|], convolved 1x1 and reshaped back to rank 1. *)

val residual_add : ctx -> ?relu:bool -> Ir.Graph.id -> Ir.Graph.id -> Ir.Graph.id
(** add + requant (shift 1). *)

val finish : ctx -> output:Ir.Graph.id -> Ir.Graph.t
