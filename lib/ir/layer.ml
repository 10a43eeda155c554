module Dtype = Tensor.Dtype
module K = Nn.Kernels

type kind =
  | Conv of K.conv_params
  | Dense
  | Add
  | Pool of { max : bool; attrs : Op.pool_attrs }

type t = {
  kind : kind;
  fused_pool : Op.pool_attrs option;
  weights : Tensor.t option;
  bias : Tensor.t option;
  shift : int option;
  relu : bool;
  in_shape : int array;
  in2_shape : int array option;
  out_shape : int array;
  in_dtype : Dtype.t;
  out_dtype : Dtype.t;
}

let weight_dtype l = Option.map Tensor.dtype l.weights

let is_depthwise l =
  match l.kind with
  | Conv p -> p.K.groups > 1 && p.K.groups = l.in_shape.(0)
  | Dense | Add | Pool _ -> false

let numel shape = Array.fold_left ( * ) 1 shape

(* Spatial extent of one pre-pool axis for a pooled extent of [n]. *)
let pre_pool_extent ~pool ~stride n = ((n - 1) * stride) + pool

let pre_pool_dims l =
  match (l.kind, l.fused_pool) with
  | Conv _, Some { Op.pool = pwy, pwx; pool_stride = psy, psx } ->
      ( pre_pool_extent ~pool:pwy ~stride:psy l.out_shape.(1),
        pre_pool_extent ~pool:pwx ~stride:psx l.out_shape.(2) )
  | _ ->
      if Array.length l.out_shape = 3 then (l.out_shape.(1), l.out_shape.(2)) else (1, 1)

let kernel_dims l =
  match (l.kind, l.weights) with
  | Conv _, Some w -> (Tensor.dim w 2, Tensor.dim w 3)
  | _ -> (1, 1)

let macs l =
  match l.kind with
  | Conv p ->
      let fy, fx = kernel_dims l in
      let c = l.in_shape.(0) in
      let oh, ow = pre_pool_dims l in
      l.out_shape.(0) * oh * ow * (c / p.K.groups) * fy * fx
  | Dense -> l.in_shape.(0) * l.out_shape.(0)
  | Add | Pool _ -> numel l.out_shape

let describe l =
  let dims shape = Array.to_list shape |> List.map string_of_int |> String.concat "x" in
  match l.kind with
  | Conv p ->
      let fy, fx = kernel_dims l in
      let sy, sx = p.K.stride in
      Printf.sprintf "%s %s -> %s k%dx%d s%dx%d%s"
        (if is_depthwise l then "dwconv2d" else "conv2d")
        (dims l.in_shape) (dims l.out_shape) fy fx sy sx
        (if l.fused_pool = None then "" else "+maxpool")
  | Dense -> Printf.sprintf "dense %s -> %s" (dims l.in_shape) (dims l.out_shape)
  | Add -> Printf.sprintf "add %s" (dims l.out_shape)
  | Pool { max; attrs = { pool = py, px; _ } } ->
      Printf.sprintf "%spool %dx%d %s -> %s"
        (if max then "max" else "avg")
        py px (dims l.in_shape) (dims l.out_shape)

(* Fields are assembled with [Util.Key.encode] (length-prefixed), so no
   field's contents can shift another's boundary. *)
let signature l =
  let dims d = String.concat "x" (List.map string_of_int (Array.to_list d)) in
  let tensor_sig = function
    | None -> "-"
    | Some t -> Dtype.to_string (Tensor.dtype t) ^ ":" ^ dims (Tensor.shape t)
  in
  let kind =
    match l.kind with
    | Conv p ->
        let sy, sx = p.K.stride and py, px = p.K.padding in
        Printf.sprintf "conv:s%dx%d:p%dx%d:g%d" sy sx py px p.K.groups
    | Dense -> "dense"
    | Add -> "add"
    | Pool { max; attrs } ->
        let py, px = attrs.Op.pool and sy, sx = attrs.Op.pool_stride in
        Printf.sprintf "pool:%b:%dx%d:s%dx%d" max py px sy sx
  in
  let fused_pool =
    match l.fused_pool with
    | None -> "-"
    | Some a ->
        let py, px = a.Op.pool and sy, sx = a.Op.pool_stride in
        Printf.sprintf "fp%dx%d:s%dx%d" py px sy sx
  in
  Util.Key.encode
    [
      kind;
      fused_pool;
      dims l.in_shape;
      (match l.in2_shape with None -> "-" | Some s -> dims s);
      dims l.out_shape;
      Dtype.to_string l.in_dtype;
      Dtype.to_string l.out_dtype;
      tensor_sig l.weights;
      tensor_sig l.bias;
      (match l.shift with None -> "-" | Some s -> string_of_int s);
      string_of_bool l.relu;
    ]

let apply_epilogue l acc =
  let biased =
    match l.bias with None -> acc | Some bias -> K.bias_add acc bias
  in
  let requanted =
    match l.shift with
    | Some shift -> K.requantize ~relu:l.relu ~shift ~out_dtype:l.out_dtype biased
    | None ->
        let biased = if l.relu then K.relu biased else biased in
        Tensor.cast l.out_dtype biased
  in
  match l.fused_pool with
  | None -> requanted
  | Some { Op.pool; pool_stride } -> K.max_pool ~pool ~stride:pool_stride requanted

let execute l ?second input =
  let acc =
    match l.kind with
    | Conv p ->
        let weights =
          match l.weights with
          | Some w -> w
          | None -> invalid_arg "Layer.execute: conv without weights"
        in
        K.conv2d ~input ~weights p
    | Dense ->
        let weights =
          match l.weights with
          | Some w -> w
          | None -> invalid_arg "Layer.execute: dense without weights"
        in
        K.dense ~input ~weights
    | Add ->
        let second =
          match second with
          | Some s -> s
          | None -> invalid_arg "Layer.execute: add needs a second input"
        in
        K.add input second
    | Pool { max = true; attrs = { pool; pool_stride } } ->
        K.max_pool ~pool ~stride:pool_stride input
    | Pool { max = false; attrs = { pool; pool_stride } } ->
        K.avg_pool ~pool ~stride:pool_stride input
  in
  apply_epilogue l acc

let validate l =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  if l.fused_pool <> None && (match l.kind with Conv _ -> false | _ -> true) then
    err "fused pooling is only valid on convolutions"
  else
  match l.kind with
  | Conv p -> (
      match l.weights with
      | None -> err "conv layer without weights"
      | Some w ->
          if Tensor.rank w <> 4 then err "conv weights must be rank 4"
          else
            let fy = Tensor.dim w 2 and fx = Tensor.dim w 3 in
            let oh, ow =
              K.conv_out_dims
                ~in_dims:(l.in_shape.(1), l.in_shape.(2))
                ~kernel:(fy, fx) p
            in
            let expected =
              match l.fused_pool with
              | None -> [| Tensor.dim w 0; oh; ow |]
              | Some { Op.pool = pwy, pwx; pool_stride = psy, psx } ->
                  [| Tensor.dim w 0; ((oh - pwy) / psy) + 1; ((ow - pwx) / psx) + 1 |]
            in
            if l.out_shape <> expected then
              err "conv out_shape inconsistent with geometry"
            else Ok ())
  | Dense -> (
      match l.weights with
      | None -> err "dense layer without weights"
      | Some w ->
          if Tensor.rank w <> 2 then err "dense weights must be rank 2"
          else if Tensor.dim w 1 <> l.in_shape.(0) then err "dense weights/input mismatch"
          else if l.out_shape <> [| Tensor.dim w 0 |] then err "dense out_shape mismatch"
          else Ok ())
  | Add ->
      if l.in2_shape <> Some l.in_shape then err "add inputs must share a shape"
      else if l.out_shape <> l.in_shape then err "add out_shape mismatch"
      else Ok ()
  | Pool _ ->
      if l.weights <> None then err "pool layer cannot carry weights" else Ok ()
