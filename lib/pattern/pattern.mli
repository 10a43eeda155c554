(** Relay-style pattern language (paper Listing 1).

    Patterns describe rooted operator trees: the root is the last operator
    of the fused sequence (e.g. the final [cast] of a requantization) and
    pattern arguments reach backwards through the graph. [wildcard] leaves
    become the composite's data inputs, [is_constant] leaves its parameter
    tensors. *)

type t

val wildcard : t
(** Matches any node; the matched node becomes an external data input. *)

val is_constant : t
(** Matches a [Const] node. *)

val is_op : string -> t list -> t
(** [is_op name args] matches an application of the operator with that
    Relay-style name (see {!Ir.Op.name}) whose arguments match [args]
    pointwise.
    @raise Invalid_argument at match time if the arity disagrees. *)

val has_attr : (Ir.Op.t -> bool) -> t -> t
(** Refine an operator pattern with an attribute predicate, e.g.
    [has_attr (function Cast I8 -> true | _ -> false)].
    @raise Invalid_argument if applied to a non-operator pattern. *)

val optional : (t -> t) -> t -> t
(** [optional f p] matches [f p] when possible, else [p] — Listing 1's
    [cast.optional(is_op "clip")]. *)

val pp : Format.formatter -> t -> unit

(** A successful match rooted at [root]. *)
type match_result = {
  root : Ir.Graph.id;
  matched : Ir.Graph.id list;  (** operator nodes consumed, ascending *)
  inputs : Ir.Graph.id list;   (** wildcard bindings in pattern order *)
  consts : Ir.Graph.id list;   (** constant bindings in pattern order *)
}

val matches : Ir.Graph.t -> t -> at:Ir.Graph.id -> match_result option
(** Try to match the pattern rooted at a node. A node may appear several
    times in [inputs] if several wildcards reach it. *)
