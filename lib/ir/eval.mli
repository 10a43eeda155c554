(** Reference interpreter.

    Evaluates graphs with the {!Nn.Kernels} reference kernels. This is the
    semantic ground truth: the HTVM-compiled artifact running on the SoC
    simulator must produce bit-identical outputs (the end-to-end
    integration tests assert exactly that). Also powers constant folding. *)

val eval_op : Op.t -> Tensor.t list -> Tensor.t
(** Apply one operator to concrete tensors.
    @raise Invalid_argument on arity or shape violations. *)

val run : Graph.t -> inputs:(string * Tensor.t) list -> Tensor.t
(** Evaluate the whole graph. Every graph [Input] must be bound by name in
    [inputs]; extra bindings are an error, as are shape/dtype mismatches.
    @raise Invalid_argument on binding problems. *)
