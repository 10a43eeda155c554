(** Dataflow graphs of quantized DNNs.

    A graph is an immutable array of nodes in topological order (every
    argument index precedes its user — the builder enforces this by
    construction) plus a single output node. This mirrors the role of a
    Relay function body in TVM's flow. *)

type id = int
(** Node identifier: index into the node array. *)

type node =
  | Input of { name : string; dtype : Tensor.Dtype.t; shape : int array }
  | Const of Tensor.t
  | App of { op : Op.t; args : id list }

type t

val valid_input_name : string -> bool
(** Input names must be non-empty and whitespace-free so every buildable
    graph serializes through {!Ir.Text} (names are single tokens there).
    Enforced by {!Builder.input} and re-checked by {!validate}. *)

val node : t -> id -> node
(** @raise Invalid_argument on an out-of-range id. *)

val length : t -> int
val output : t -> id

val node_ids : t -> id list
(** All ids in topological order. *)

val inputs : t -> (id * string * Tensor.Dtype.t * int array) list
(** The graph's [Input] nodes in declaration order. *)

val consumer_index : t -> id list array
(** [(consumer_index g).(i)] lists the users of node [i]: the
    applications that take it as an argument, ascending, each once even
    when it reads the value twice ([add x x]). Built in one pass over the
    nodes, so a pass that asks about many nodes builds it once and indexes
    it instead of rescanning the graph per question. *)

val app_count : t -> int
(** Number of operator applications (network "size"). *)

val validate : t -> (unit, string) result
(** Structural checks: argument ids in range and topologically ordered,
    arities match, output in range, input names unique. The builder can
    only produce valid graphs; [validate] guards hand-built ones and
    transformation outputs. *)

val pp : Format.formatter -> t -> unit
(** Multi-line listing, one node per line: [%3 = nn.conv2d(%0, %1)]. *)

val to_string : t -> string

(** Incremental graph construction. *)
module Builder : sig
  type graph := t
  type t

  val create : unit -> t

  val input : t -> name:string -> Tensor.Dtype.t -> int array -> id
  (** @raise Invalid_argument when the name fails {!valid_input_name}:
      such a graph could never be serialized. *)

  val const : t -> Tensor.t -> id

  val app : t -> Op.t -> id list -> id
  (** @raise Invalid_argument on arity mismatch or forward reference. *)

  (* Convenience wrappers over [app]: *)

  val conv2d :
    t -> ?stride:int * int -> ?padding:int * int -> ?groups:int -> id -> weights:id -> id

  val dense : t -> id -> weights:id -> id
  val bias_add : t -> id -> bias:id -> id

  val requantize : t -> ?relu:bool -> shift:int -> out_dtype:Tensor.Dtype.t -> id -> id
  (** Expands to the Listing-1 requant sequence:
      [right_shift -> clip -> cast], with the clip range narrowed to
      [\[0, max\]] when [relu] — exactly the composite the accelerator
      pattern expects to find. *)

  val relu : t -> id -> id
  val add : t -> id -> id -> id
  val max_pool : t -> pool:int * int -> stride:int * int -> id -> id
  val avg_pool : t -> pool:int * int -> stride:int * int -> id -> id
  val global_avg_pool : t -> id -> id
  val softmax : t -> id -> id
  val reshape : t -> int array -> id -> id

  val finish : t -> output:id -> graph
end
