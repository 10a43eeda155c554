type t = {
  cpu_name : string;
  conv_cycles_per_mac : float;
  dense_cycles_per_mac : float;
  depthwise_cycles_per_mac : float;
  elementwise_cycles_per_elt : float;
  pool_cycles_per_elt : float;
  softmax_cycles_per_elt : float;
  data_move_cycles_per_byte : float;
  kernel_call_overhead : int;
}

let numel shape = Array.fold_left ( * ) 1 shape

let op_cycles m (op : Ir.Op.t) (args : Ir.Infer.ty list) (out : Ir.Infer.ty) =
  let f2i f = int_of_float (Float.round f) in
  match op with
  | Ir.Op.Conv2d p ->
      let data = List.nth args 0 and w = List.nth args 1 in
      let macs =
        numel out.Ir.Infer.shape
        * (data.Ir.Infer.shape.(0) / p.Nn.Kernels.groups)
        * w.Ir.Infer.shape.(2) * w.Ir.Infer.shape.(3)
      in
      let per_mac =
        if p.Nn.Kernels.groups > 1 then m.depthwise_cycles_per_mac
        else m.conv_cycles_per_mac
      in
      f2i (float_of_int macs *. per_mac)
  | Ir.Op.Dense ->
      let w = List.nth args 1 in
      let macs = w.Ir.Infer.shape.(0) * w.Ir.Infer.shape.(1) in
      f2i (float_of_int macs *. m.dense_cycles_per_mac)
  | Ir.Op.Bias_add | Ir.Op.Right_shift | Ir.Op.Clip _ | Ir.Op.Cast _ | Ir.Op.Relu
  | Ir.Op.Add ->
      f2i (float_of_int (numel out.Ir.Infer.shape) *. m.elementwise_cycles_per_elt)
  | Ir.Op.Max_pool { pool = py, px; _ } | Ir.Op.Avg_pool { pool = py, px; _ } ->
      f2i (float_of_int (numel out.Ir.Infer.shape * py * px) *. m.pool_cycles_per_elt)
  | Ir.Op.Global_avg_pool ->
      let data = List.nth args 0 in
      f2i (float_of_int (numel data.Ir.Infer.shape) *. m.pool_cycles_per_elt)
  | Ir.Op.Softmax ->
      f2i (float_of_int (numel out.Ir.Infer.shape) *. m.softmax_cycles_per_elt)
  | Ir.Op.Concat ->
      (* A pure data movement: both operands are copied once. *)
      f2i (float_of_int (numel out.Ir.Infer.shape) *. m.data_move_cycles_per_byte)
  | Ir.Op.Reshape _ ->
      (* Lowered to a pointer rebind; charged as a pure call overhead. *)
      0
