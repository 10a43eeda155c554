(** Graph-level optimizations run before partitioning (TVM's "initial
    optimizations" in the HTVM flow, Sec. III). *)

val simplify : Graph.t -> Graph.t
(** Four passes, in this order:
    - constant folding: every application whose arguments are all
      constants becomes the constant it evaluates to (a fixed point in
      one topological pass);
    - common-subexpression elimination: structurally identical
      applications of the same operator to the same arguments are shared
      (equal constants unify first, so reused weights dedup too);
    - local exact peephole rewrites, in one pass:
      [right_shift(right_shift(x, a), b) -> right_shift(x, a + b)],
      [relu(relu x) -> relu x], [reshape(reshape x) -> reshape x] (outer
      shape wins), dropping a [clip] whose range contains its operand's
      clip range, and dropping a [cast] to the operand's own dtype;
    - dead-code elimination: nodes not reachable from the output go;
      remaining ids are compacted but keep their relative order.
    All rewrites preserve values exactly (tested by fuzzing). *)
