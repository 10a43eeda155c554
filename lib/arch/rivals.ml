let stm32_tvm =
  {
    Cpu_model.cpu_name = "stm32l4r5-tvm";
    conv_cycles_per_mac = 3.7;
    dense_cycles_per_mac = 6.0;
    depthwise_cycles_per_mac = 7.0;
    elementwise_cycles_per_elt = 3.0;
    pool_cycles_per_elt = 3.0;
    softmax_cycles_per_elt = 60.0;
    data_move_cycles_per_byte = 1.5;
    kernel_call_overhead = 600;
  }

let stm32_cmsis =
  {
    Cpu_model.cpu_name = "stm32l4r5-cmsis-nn";
    conv_cycles_per_mac = 3.7;
    dense_cycles_per_mac = 4.4;
    depthwise_cycles_per_mac = 5.0;
    elementwise_cycles_per_elt = 2.0;
    pool_cycles_per_elt = 2.0;
    softmax_cycles_per_elt = 50.0;
    data_move_cycles_per_byte = 1.0;
    kernel_call_overhead = 600;
  }

let gap9_gapflow =
  {
    Cpu_model.cpu_name = "gap9-gapflow";
    conv_cycles_per_mac = 0.014;
    dense_cycles_per_mac = 0.4;
    depthwise_cycles_per_mac = 0.12;
    elementwise_cycles_per_elt = 0.15;
    pool_cycles_per_elt = 0.2;
    softmax_cycles_per_elt = 10.0;
    data_move_cycles_per_byte = 0.1;
    kernel_call_overhead = 1200;
  }

let anchor_op = function
  | Ir.Op.Conv2d _ | Ir.Op.Dense | Ir.Op.Add | Ir.Op.Max_pool _ | Ir.Op.Avg_pool _
  | Ir.Op.Global_avg_pool | Ir.Op.Softmax | Ir.Op.Concat ->
      true
  | Ir.Op.Bias_add | Ir.Op.Right_shift | Ir.Op.Clip _ | Ir.Op.Cast _ | Ir.Op.Relu
  | Ir.Op.Reshape _ ->
      false

(* Each operator application costs its [Cpu_model.op_cycles] plus one
   kernel-call overhead per anchor op. *)
let estimate_graph_cycles model g =
  let tys = Ir.Infer.infer g in
  List.fold_left
    (fun acc id ->
      match Ir.Graph.node g id with
      | Ir.Graph.App { op; args } ->
          let arg_tys = List.map (fun a -> tys.(a)) args in
          let base = Cpu_model.op_cycles model op arg_tys tys.(id) in
          let call = if anchor_op op then model.Cpu_model.kernel_call_overhead else 0 in
          acc + base + call
      | Ir.Graph.Input _ | Ir.Graph.Const _ -> acc)
    0 (Ir.Graph.node_ids g)

(* Every rival is normalized to 260 MHz. *)
let estimate_graph_ms model g = float_of_int (estimate_graph_cycles model g) /. 260_000.0
