(** TVM-style operator fusion for the host CPU path.

    Unmatched operators fall through to TVM's native lowering in HTVM,
    which emits operator-fused C kernels (paper Sec. III). We reproduce
    the standard fusion rule: a kernel is one optional "heavy" anchor
    (conv / dense / pool / softmax) followed by a chain of light
    elementwise or shape ops, fused as long as each intermediate value has
    a single in-kernel consumer. *)

type kernel = {
  kernel_name : string;
  nodes : Ir.Graph.id list;  (** fused applications, topological order *)
  cycles : int;  (** host cycles per invocation, incl. one call overhead *)
  code_bytes : int;  (** contribution to the binary's text section *)
}

val kernels :
  cpu:Arch.Cpu_model.t ->
  size:Arch.Platform.size_model ->
  Ir.Graph.t ->
  Ir.Infer.ty array ->
  host_nodes:Ir.Graph.id list ->
  kernel list
(** Group the given host-resident operator nodes (ascending ids) into
    fused kernels with modeled cycles and code size. Every node appears in
    exactly one kernel; kernels are returned in execution order. A chain
    grows through a value's users as one {!Ir.Graph.consumer_index}, built
    per call, lists them: a value read twice by one op ([add r r]) still
    has that op as its unique consumer. *)
