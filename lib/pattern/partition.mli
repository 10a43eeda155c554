(** BYOC graph partitioner (paper Sec. III-A).

    Walks the graph and dispatches each matched coarse-grained region to
    the best accelerator target whose rules accept it; everything left
    falls through to the host CPU path. The result is a linear execution
    plan over composite segments, preserving dataflow order. *)

type target = {
  name : string;  (** e.g. ["diana_digital"] *)
  patterns : Pattern.t list;  (** tried in order *)
  accept : Ir.Layer.t -> bool;
      (** accelerator-aware rules: final say on a matched candidate
          (bit-widths, geometry limits, stride support, ...) *)
  priority : int;  (** among tying estimates, higher wins *)
  estimate : (Ir.Layer.t -> int) option;
      (** expected execution cost on this target. When several targets
          accept the same candidate, the flow "selects the one best
          optimized for that given operation" (paper Sec. III-A): lowest
          estimate wins, priority breaks ties and orders targets without
          estimates. *)
}

type segment =
  | Offload of {
      target : string;
      layer : Ir.Layer.t;
      inputs : Ir.Graph.id list;  (** data inputs, pattern order *)
      output : Ir.Graph.id;  (** region root *)
    }
  | Host of { id : Ir.Graph.id }
      (** one unmatched operator application, lowered by the CPU codegen *)

type plan = {
  graph : Ir.Graph.t;
  tys : Ir.Infer.ty array;
  segments : segment list;  (** in execution (dataflow) order *)
}

val segment_inputs : Ir.Graph.t -> segment -> Ir.Graph.id list
(** Data-input node ids of a segment (constants excluded). *)

val run : Ir.Graph.t -> targets:target list -> plan
(** Partition the graph. Matching is greedy from the outputs backwards; a
    region is only committed when all its interior nodes are consumed
    exclusively inside the region (otherwise fusing would duplicate
    work), when layer extraction succeeds, and when the target's rules
    accept the layer. The privacy check reads one
    {!Ir.Graph.consumer_index} built per call.
    @raise Ir.Infer.Type_error if the graph does not type-check. *)

val pp : Format.formatter -> plan -> unit
(** One line per segment: destination and layer/op description. *)
