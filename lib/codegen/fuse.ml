type kernel = {
  kernel_name : string;
  nodes : Ir.Graph.id list;
  cycles : int;
  code_bytes : int;
}

let is_light = function
  | Ir.Op.Bias_add | Ir.Op.Right_shift | Ir.Op.Clip _ | Ir.Op.Cast _ | Ir.Op.Relu
  | Ir.Op.Add | Ir.Op.Reshape _ ->
      true
  | Ir.Op.Conv2d _ | Ir.Op.Dense | Ir.Op.Max_pool _ | Ir.Op.Avg_pool _
  | Ir.Op.Global_avg_pool | Ir.Op.Softmax | Ir.Op.Concat ->
      false

let node_op g id =
  match Ir.Graph.node g id with
  | Ir.Graph.App { op; _ } -> op
  | Ir.Graph.Input _ | Ir.Graph.Const _ ->
      invalid_arg "Fuse: host node is not an operator application"

let kernel_label g nodes =
  match nodes with
  | [] -> "empty"
  | first :: rest ->
      let base = Ir.Op.name (node_op g first) in
      let short s =
        match String.rindex_opt s '.' with
        | Some i -> String.sub s (i + 1) (String.length s - i - 1)
        | None -> s
      in
      if rest = [] then short base
      else Printf.sprintf "%s_fused%d" (short base) (List.length rest)

let kernels ~cpu ~size g tys ~host_nodes =
  let host = List.sort_uniq compare host_nodes in
  let n = Ir.Graph.length g in
  let is_host = Array.make n false and taken = Array.make n false in
  List.iter (fun id -> is_host.(id) <- true) host;
  let consumers = Ir.Graph.consumer_index g in
  let groups = ref [] in
  (* Greedy forward pass: grow each group along the unique-consumer chain
     while the next op is light and host-resident. *)
  List.iter
    (fun id ->
      if not taken.(id) then begin
        let group = ref [ id ] in
        taken.(id) <- true;
        let rec extend last =
          match consumers.(last) with
          | [ next ] when is_host.(next) && (not taken.(next)) && is_light (node_op g next)
            ->
              taken.(next) <- true;
              group := next :: !group;
              extend next
          | _ -> ()
        in
        extend id;
        groups := List.rev !group :: !groups
      end)
    host;
  let groups = List.rev !groups in
  let counter = ref (-1) in
  List.map
    (fun nodes ->
      incr counter;
      let cycles =
        List.fold_left
          (fun acc id ->
            match Ir.Graph.node g id with
            | Ir.Graph.App { op; args } ->
                let arg_tys = List.map (fun a -> tys.(a)) args in
                acc + Arch.Cpu_model.op_cycles cpu op arg_tys tys.(id)
            | Ir.Graph.Input _ | Ir.Graph.Const _ -> acc)
          cpu.Arch.Cpu_model.kernel_call_overhead nodes
      in
      let code_bytes =
        size.Arch.Platform.cpu_kernel_bytes
        + (size.Arch.Platform.cpu_op_bytes * (List.length nodes - 1))
      in
      {
        kernel_name = Printf.sprintf "cpu_%d_%s" !counter (kernel_label g nodes);
        nodes;
        cycles;
        code_bytes;
      })
    groups
