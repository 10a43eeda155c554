module B = Ir.Graph.Builder
module Dtype = Tensor.Dtype

type ctx = { b : B.t; rng : Util.Rng.t; pol : Policy.t }

let create ?(seed = 0xD1A) pol = { b = B.create (); rng = Util.Rng.create seed; pol }
let builder ctx = ctx.b

let input ctx ~name shape = B.input ctx.b ~name Dtype.I8 shape

(* i32 bias constants with i16-sized values, so accumulators stay sane. *)
let bias_const ctx n =
  let t = Tensor.create Dtype.I32 [| n |] in
  for i = 0 to n - 1 do
    Tensor.set_flat t i (Util.Rng.int_in ctx.rng (-16384) 16383)
  done;
  B.const ctx.b t

(* Requantization shift sized from the dot-product length so outputs use
   the int8 range without saturating everywhere. *)
let shift_for ~dtype ~taps =
  match (dtype : Dtype.t) with
  | Dtype.Ternary -> Util.Ints.log2_ceil (max taps 2) + 2
  | _ -> Util.Ints.log2_ceil (max taps 2) + 6

let conv ctx ~role ?(relu = true) ?(stride = (1, 1)) ?(padding = (0, 0)) ~in_channels
    ~out_channels ~kernel:(fy, fx) x =
  let dtype = Policy.weight_dtype ctx.pol role in
  let w =
    B.const ctx.b (Tensor.random ctx.rng dtype [| out_channels; in_channels; fy; fx |])
  in
  let bias = bias_const ctx out_channels in
  let y = B.conv2d ctx.b ~stride ~padding x ~weights:w in
  let y = B.bias_add ctx.b y ~bias in
  B.requantize ctx.b ~relu
    ~shift:(shift_for ~dtype ~taps:(in_channels * fy * fx))
    ~out_dtype:Dtype.I8 y

let depthwise ctx ?(relu = true) ?(stride = (1, 1)) ?(padding = (1, 1)) ~channels
    ~kernel:(fy, fx) x =
  let dtype = Policy.weight_dtype ctx.pol Policy.Dw in
  let w = B.const ctx.b (Tensor.random ctx.rng dtype [| channels; 1; fy; fx |]) in
  let bias = bias_const ctx channels in
  let y = B.app ctx.b (Ir.Op.Conv2d { stride; padding; groups = channels }) [ x; w ] in
  let y = B.bias_add ctx.b y ~bias in
  B.requantize ctx.b ~relu ~shift:(shift_for ~dtype ~taps:(fy * fx)) ~out_dtype:Dtype.I8 y

let dense ctx ~role ?(relu = false) ~in_features ~out_features x =
  let dtype = Policy.weight_dtype ctx.pol role in
  if Policy.fc_as_conv ctx.pol role then begin
    let as_chw = B.reshape ctx.b [| in_features; 1; 1 |] x in
    let y =
      conv ctx ~role:Policy.Inner ~relu ~in_channels:in_features
        ~out_channels:out_features ~kernel:(1, 1) as_chw
    in
    B.reshape ctx.b [| out_features |] y
  end
  else begin
    let w = B.const ctx.b (Tensor.random ctx.rng dtype [| out_features; in_features |]) in
    let bias = bias_const ctx out_features in
    let y = B.dense ctx.b x ~weights:w in
    let y = B.bias_add ctx.b y ~bias in
    B.requantize ctx.b ~relu ~shift:(shift_for ~dtype ~taps:in_features)
      ~out_dtype:Dtype.I8 y
  end

let residual_add ctx ?(relu = false) a b =
  let y = B.add ctx.b a b in
  B.requantize ctx.b ~relu ~shift:1 ~out_dtype:Dtype.I8 y

let finish ctx ~output = B.finish ctx.b ~output
