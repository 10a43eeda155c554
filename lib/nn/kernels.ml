type conv_params = {
  stride : int * int;
  padding : int * int;
  groups : int;
}

let conv_default = { stride = (1, 1); padding = (0, 0); groups = 1 }

let conv_out_dims ~in_dims:(h, w) ~kernel:(fy, fx) p =
  let sy, sx = p.stride and py, px = p.padding in
  let oh = ((h + (2 * py) - fy) / sy) + 1 in
  let ow = ((w + (2 * px) - fx) / sx) + 1 in
  (oh, ow)

let conv2d ~input ~weights p =
  let c = Tensor.dim input 0 and h = Tensor.dim input 1 and w = Tensor.dim input 2 in
  let k = Tensor.dim weights 0
  and cg = Tensor.dim weights 1
  and fy = Tensor.dim weights 2
  and fx = Tensor.dim weights 3 in
  let g = p.groups in
  if g <= 0 || c mod g <> 0 || k mod g <> 0 then invalid_arg "conv2d: bad group count";
  if cg <> c / g then invalid_arg "conv2d: weight channel dim does not match input/groups";
  let sy, sx = p.stride and py, px = p.padding in
  if sy <= 0 || sx <= 0 || py < 0 || px < 0 then invalid_arg "conv2d: bad stride/padding";
  let oh, ow = conv_out_dims ~in_dims:(h, w) ~kernel:(fy, fx) p in
  if oh <= 0 || ow <= 0 then invalid_arg "conv2d: empty output";
  let out = Tensor.create Tensor.Dtype.I32 [| k; oh; ow |] in
  let kpg = k / g in
  (* Flat-index hot loop: per-element [Tensor.get] would allocate an index
     array per access, which dominates whole-network simulations. *)
  for ko = 0 to k - 1 do
    let grp = ko / kpg in
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        let acc = ref 0 in
        for ci = 0 to cg - 1 do
          let c_in = (grp * cg) + ci in
          let in_ch_base = c_in * h * w in
          let w_base = (((ko * cg) + ci) * fy) * fx in
          for ky = 0 to fy - 1 do
            let iy = (oy * sy) + ky - py in
            if iy >= 0 && iy < h then begin
              let in_row_base = in_ch_base + (iy * w) in
              let w_row_base = w_base + (ky * fx) in
              for kx = 0 to fx - 1 do
                let ix = (ox * sx) + kx - px in
                if ix >= 0 && ix < w then
                  acc :=
                    !acc
                    + Tensor.get_flat input (in_row_base + ix)
                      * Tensor.get_flat weights (w_row_base + kx)
              done
            end
          done
        done;
        Tensor.set_flat out (((ko * oh) + oy) * ow + ox) !acc
      done
    done
  done;
  out

let dense ~input ~weights =
  let c = Tensor.dim input 0 and k = Tensor.dim weights 0 in
  if Tensor.dim weights 1 <> c then invalid_arg "dense: weight/input dim mismatch";
  let out = Tensor.create Tensor.Dtype.I32 [| k |] in
  for ko = 0 to k - 1 do
    let acc = ref 0 in
    for ci = 0 to c - 1 do
      acc := !acc + (Tensor.get input [| ci |] * Tensor.get weights [| ko; ci |])
    done;
    Tensor.set out [| ko |] !acc
  done;
  out

let bias_add acc bias =
  let k = Tensor.dim acc 0 in
  if Tensor.rank bias <> 1 || Tensor.dim bias 0 <> k then
    invalid_arg "bias_add: bias must be [|k|]";
  let spatial = Tensor.numel acc / k in
  let out = Tensor.create (Tensor.dtype acc) (Tensor.shape acc) in
  for ko = 0 to k - 1 do
    let b = Tensor.get bias [| ko |] in
    for s = 0 to spatial - 1 do
      let i = (ko * spatial) + s in
      Tensor.set_flat out i (Tensor.get_flat acc i + b)
    done
  done;
  out

let requantize ?(relu = false) ~shift ~out_dtype t =
  if shift < 0 then invalid_arg "requantize: negative shift";
  let lo = if relu then 0 else Tensor.Dtype.min_value out_dtype in
  let hi = Tensor.Dtype.max_value out_dtype in
  let out = Tensor.create out_dtype (Tensor.shape t) in
  Tensor.iteri_flat
    (fun i v -> Tensor.set_flat out i (Util.Ints.clamp ~lo ~hi (v asr shift)))
    t;
  out

let relu t = Tensor.map (fun v -> max 0 v) t

let add a b = Tensor.map2 Tensor.Dtype.I32 ( + ) a b

let pool_out ~pool:(py, px) ~stride:(sy, sx) h w =
  let oh = ((h - py) / sy) + 1 and ow = ((w - px) / sx) + 1 in
  if oh <= 0 || ow <= 0 then invalid_arg "pool: empty output";
  (oh, ow)

let pool_generic ~pool:(py, px) ~stride:(sy, sx) ~init ~step ~finish t =
  let c = Tensor.dim t 0 and h = Tensor.dim t 1 and w = Tensor.dim t 2 in
  let oh, ow = pool_out ~pool:(py, px) ~stride:(sy, sx) h w in
  let out = Tensor.create (Tensor.dtype t) [| c; oh; ow |] in
  for ci = 0 to c - 1 do
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        let acc = ref init in
        for ky = 0 to py - 1 do
          for kx = 0 to px - 1 do
            acc := step !acc (Tensor.get t [| ci; (oy * sy) + ky; (ox * sx) + kx |])
          done
        done;
        Tensor.set out [| ci; oy; ox |] (finish !acc)
      done
    done
  done;
  out

let max_pool ~pool ~stride t =
  pool_generic ~pool ~stride ~init:min_int ~step:max ~finish:(fun v -> v) t

let avg_pool ~pool ~stride t =
  let py, px = pool in
  let n = py * px in
  (* Truncating division towards minus infinity keeps the result in the
     input dtype's range for any window contents. *)
  let fdiv v = if v >= 0 then v / n else -(((-v) + n - 1) / n) in
  pool_generic ~pool ~stride ~init:0 ~step:( + ) ~finish:fdiv t

let global_avg_pool t =
  let h = Tensor.dim t 1 and w = Tensor.dim t 2 in
  avg_pool ~pool:(h, w) ~stride:(1, 1) t

(* Fixed-point exp table: exp(x/16) in Q8 for x in [-128, 0]. Generated once
   from floats; deterministic across runs and platforms for this range. *)
let exp_q8 =
  Array.init 129 (fun i ->
      let x = float_of_int (-i) /. 16.0 in
      int_of_float (Float.round (exp x *. 256.0)))

let softmax t =
  if Tensor.rank t <> 1 then invalid_arg "softmax: expected rank-1 input";
  let k = Tensor.dim t 0 in
  let m = Tensor.fold max min_int t in
  let weights =
    Array.init k (fun i ->
        let d = m - Tensor.get t [| i |] in
        (* Values are int8 so d <= 255; saturate the table index. *)
        exp_q8.(min d 128))
  in
  let total = Array.fold_left ( + ) 0 weights in
  let out = Tensor.create Tensor.Dtype.I8 [| k |] in
  Array.iteri (fun i wgt -> Tensor.set out [| i |] (wgt * 127 / total)) weights;
  out

let concat_channels a b =
  let da = Tensor.shape a and db = Tensor.shape b in
  if Array.length da <> 3 || Array.length db <> 3 || da.(1) <> db.(1) || da.(2) <> db.(2)
  then invalid_arg "concat_channels: CHW spatial dims must match";
  if not (Tensor.Dtype.equal (Tensor.dtype a) (Tensor.dtype b)) then
    invalid_arg "concat_channels: dtype mismatch";
  let out = Tensor.create (Tensor.dtype a) [| da.(0) + db.(0); da.(1); da.(2) |] in
  Tensor.iteri_flat (fun i v -> Tensor.set_flat out i v) a;
  let off = Tensor.numel a in
  Tensor.iteri_flat (fun i v -> Tensor.set_flat out (off + i) v) b;
  out

let flatten t = Tensor.reshape t [| Tensor.numel t |]
