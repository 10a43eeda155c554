(* Tests for lib/nn reference kernels: hand-computed cases plus algebraic
   property tests (linearity, equivalence of formulations). *)

module Dtype = Tensor.Dtype
module K = Nn.Kernels

let i8 shape data = Tensor.of_array Dtype.I8 shape data
let i32 shape data = Tensor.of_array Dtype.I32 shape data

let test_conv_identity_kernel () =
  (* 1x1 kernel of value 1 on a single channel is the identity (as i32). *)
  let input = i8 [| 1; 2; 2 |] [| 1; -2; 3; 4 |] in
  let w = i8 [| 1; 1; 1; 1 |] [| 1 |] in
  let out = K.conv2d ~input ~weights:w K.conv_default in
  Helpers.check_tensor "identity" (i32 [| 1; 2; 2 |] [| 1; -2; 3; 4 |]) out

let test_conv_hand_case () =
  (* 2x2 input, 2x2 kernel, no padding: single dot product. *)
  let input = i8 [| 1; 2; 2 |] [| 1; 2; 3; 4 |] in
  let w = i8 [| 1; 1; 2; 2 |] [| 10; 20; 30; 40 |] in
  let out = K.conv2d ~input ~weights:w K.conv_default in
  Helpers.check_tensor "dot" (i32 [| 1; 1; 1 |] [| 300 |]) out

let test_conv_padding () =
  (* 1x1 input, 3x3 all-ones kernel, pad 1: only the center tap hits. *)
  let input = i8 [| 1; 1; 1 |] [| 5 |] in
  let w = Tensor.create Dtype.I8 [| 1; 1; 3; 3 |] in
  Tensor.fill w 1;
  let out = K.conv2d ~input ~weights:w { K.conv_default with padding = (1, 1) } in
  (* Only the center tap lands inside the image. *)
  Helpers.check_tensor "padded" (i32 [| 1; 1; 1 |] [| 5 |]) out;
  (* A 3x3 input with pad 1 keeps its spatial size and the corner output
     sums the 2x2 corner neighbourhood. *)
  let input = i8 [| 1; 3; 3 |] (Array.init 9 (fun i -> i + 1)) in
  let out = K.conv2d ~input ~weights:w { K.conv_default with padding = (1, 1) } in
  Alcotest.(check (list int)) "same-size output" [ 1; 3; 3 ]
    (Array.to_list (Tensor.shape out));
  Alcotest.(check int) "corner sum" (1 + 2 + 4 + 5) (Tensor.get out [| 0; 0; 0 |]);
  Alcotest.(check int) "center sum" 45 (Tensor.get out [| 0; 1; 1 |])

let test_conv_stride () =
  let input = i8 [| 1; 4; 4 |] (Array.init 16 (fun i -> i)) in
  let w = i8 [| 1; 1; 1; 1 |] [| 1 |] in
  let out = K.conv2d ~input ~weights:w { K.conv_default with stride = (2, 2) } in
  Helpers.check_tensor "strided" (i32 [| 1; 2; 2 |] [| 0; 2; 8; 10 |]) out

let test_conv_multi_channel () =
  (* Two input channels summed by a 1x1 kernel with weights (1, 2). *)
  let input = i8 [| 2; 1; 2 |] [| 1; 2; 10; 20 |] in
  let w = i8 [| 1; 2; 1; 1 |] [| 1; 2 |] in
  let out = K.conv2d ~input ~weights:w K.conv_default in
  Helpers.check_tensor "channels" (i32 [| 1; 1; 2 |] [| 21; 42 |]) out

let test_conv_out_dims () =
  let p = { K.stride = (2, 2); padding = (1, 1); groups = 1 } in
  Alcotest.(check (pair int int)) "32->16" (16, 16)
    (K.conv_out_dims ~in_dims:(32, 32) ~kernel:(3, 3) p)

let test_conv_rejects_bad_groups () =
  let input = Tensor.create Dtype.I8 [| 3; 4; 4 |] in
  let w = Tensor.create Dtype.I8 [| 4; 3; 1; 1 |] in
  Alcotest.check_raises "groups" (Invalid_argument "conv2d: bad group count") (fun () ->
      ignore (K.conv2d ~input ~weights:w { K.conv_default with groups = 2 }))

let test_depthwise_hand_case () =
  (* Each channel convolved with its own kernel. *)
  let input = i8 [| 2; 2; 2 |] [| 1; 1; 1; 1; 2; 2; 2; 2 |] in
  let w = i8 [| 2; 1; 2; 2 |] [| 1; 1; 1; 1; 3; 3; 3; 3 |] in
  let out = K.conv2d ~input ~weights:w { K.conv_default with groups = 2 } in
  Helpers.check_tensor "dw" (i32 [| 2; 1; 1 |] [| 4; 24 |]) out

let test_dense_hand_case () =
  let input = i8 [| 3 |] [| 1; 2; 3 |] in
  let w = i8 [| 2; 3 |] [| 1; 0; 0; 1; 1; 1 |] in
  let out = K.dense ~input ~weights:w in
  Helpers.check_tensor "dense" (i32 [| 2 |] [| 1; 6 |]) out

let test_bias_add_broadcast () =
  let acc = i32 [| 2; 1; 2 |] [| 1; 2; 3; 4 |] in
  let bias = i32 [| 2 |] [| 10; 20 |] in
  let out = K.bias_add acc bias in
  Helpers.check_tensor "bias" (i32 [| 2; 1; 2 |] [| 11; 12; 23; 24 |]) out

let test_requantize_shift_clip_cast () =
  let acc = i32 [| 4 |] [| 1024; -1024; 100000; -100000 |] in
  let out = K.requantize ~shift:4 ~out_dtype:Dtype.I8 acc in
  Helpers.check_tensor "requant" (i8 [| 4 |] [| 64; -64; 127; -128 |]) out

let test_requantize_relu () =
  let acc = i32 [| 3 |] [| -512; 0; 512 |] in
  let out = K.requantize ~relu:true ~shift:2 ~out_dtype:Dtype.I8 acc in
  Helpers.check_tensor "requant+relu" (i8 [| 3 |] [| 0; 0; 127 |]) out

let test_requantize_negative_shift_rounds_down () =
  (* Arithmetic shift of negative values rounds toward minus infinity,
     matching RISC-V sra semantics. *)
  let acc = i32 [| 2 |] [| -1; -3 |] in
  let out = K.requantize ~shift:1 ~out_dtype:Dtype.I8 acc in
  Helpers.check_tensor "asr semantics" (i8 [| 2 |] [| -1; -2 |]) out

let test_relu () =
  let t = i8 [| 4 |] [| -3; 0; 2; -128 |] in
  Helpers.check_tensor "relu" (i8 [| 4 |] [| 0; 0; 2; 0 |]) (K.relu t)

let test_add () =
  let a = i8 [| 2 |] [| 100; -100 |] and b = i8 [| 2 |] [| 100; -100 |] in
  Helpers.check_tensor "residual add widens" (i32 [| 2 |] [| 200; -200 |]) (K.add a b)

let test_max_pool () =
  let t = i8 [| 1; 2; 4 |] [| 1; 5; 2; 0; 3; 4; 8; -1 |] in
  let out = K.max_pool ~pool:(2, 2) ~stride:(2, 2) t in
  Helpers.check_tensor "maxpool" (i8 [| 1; 1; 2 |] [| 5; 8 |]) out

let test_avg_pool () =
  let t = i8 [| 1; 2; 2 |] [| 1; 3; 5; 7 |] in
  let out = K.avg_pool ~pool:(2, 2) ~stride:(2, 2) t in
  Helpers.check_tensor "avgpool" (i8 [| 1; 1; 1 |] [| 4 |]) out

let test_avg_pool_negative_truncation () =
  let t = i8 [| 1; 1; 2 |] [| -1; -2 |] in
  let out = K.avg_pool ~pool:(1, 2) ~stride:(1, 2) t in
  (* Sum -3 over 2 -> -2 when rounding toward minus infinity. *)
  Helpers.check_tensor "negative avg" (i8 [| 1; 1; 1 |] [| -2 |]) out

let test_global_avg_pool () =
  let t = i8 [| 2; 2; 2 |] [| 1; 1; 1; 1; 4; 4; 4; 4 |] in
  let out = K.global_avg_pool t in
  Helpers.check_tensor "gap" (i8 [| 2; 1; 1 |] [| 1; 4 |]) out

let test_softmax_preserves_argmax () =
  let t = i8 [| 4 |] [| -50; 10; 100; 3 |] in
  let out = K.softmax t in
  let best = ref 0 in
  for i = 1 to 3 do
    if Tensor.get out [| i |] > Tensor.get out [| !best |] then best := i
  done;
  Alcotest.(check int) "argmax kept" 2 !best;
  Tensor.iteri_flat (fun _ v -> Alcotest.(check bool) "range" true (v >= 0 && v <= 127)) out

let test_softmax_uniform () =
  let t = i8 [| 4 |] [| 7; 7; 7; 7 |] in
  let out = K.softmax t in
  let v0 = Tensor.get out [| 0 |] in
  Tensor.iteri_flat (fun _ v -> Alcotest.(check int) "uniform" v0 v) out

let test_flatten () =
  let t = Tensor.create Dtype.I8 [| 2; 3; 4 |] in
  Alcotest.(check int) "rank 1" 1 (Tensor.rank (K.flatten t));
  Alcotest.(check int) "numel kept" 24 (Tensor.numel (K.flatten t))

(* --- Property tests --- *)

let small_conv_case =
  let open QCheck.Gen in
  let gen =
    int_range 1 3 >>= fun c ->
    int_range 1 3 >>= fun k ->
    int_range 1 3 >>= fun f ->
    int_range f 7 >>= fun h ->
    int_range f 7 >>= fun w ->
    int_range 1 2 >>= fun s ->
    int_range 0 1 >>= fun pad ->
    int >|= fun seed ->
    let rng = Util.Rng.create seed in
    let input = Tensor.random rng Dtype.I8 [| c; h; w |] in
    let weights = Tensor.random rng Dtype.I8 [| k; c; f; f |] in
    (input, weights, { K.stride = (s, s); padding = (pad, pad); groups = 1 })
  in
  QCheck.make gen

let prop_conv_linear_in_weights =
  (* conv(x, w1 + w2) = conv(x, w1) + conv(x, w2) — accumulate in i32 with
     i8/4 inputs so sums stay in range. *)
  Helpers.qtest ~count:50 "conv linear in weights" small_conv_case
    (fun (input, weights, p) ->
      let half = Tensor.map (fun v -> v / 2) weights in
      let rest = Tensor.map2 Dtype.I8 ( - ) weights half in
      let whole = K.conv2d ~input ~weights p in
      let parts = K.add (K.conv2d ~input ~weights:half p) (K.conv2d ~input ~weights:rest p) in
      Tensor.max_abs_diff whole parts = 0)

let prop_conv_1x1_equals_dense_per_pixel =
  Helpers.qtest ~count:50 "1x1 conv == per-pixel dense"
    QCheck.(pair (int_range 1 4) int)
    (fun (c, seed) ->
      let rng = Util.Rng.create seed in
      let h = 3 and w = 3 and k = 2 in
      let input = Tensor.random rng Dtype.I8 [| c; h; w |] in
      let weights = Tensor.random rng Dtype.I8 [| k; c; 1; 1 |] in
      let conv = K.conv2d ~input ~weights K.conv_default in
      let wmat = Tensor.reshape weights [| k; c |] in
      let ok = ref true in
      for y = 0 to h - 1 do
        for x = 0 to w - 1 do
          let pixel = Tensor.create Dtype.I8 [| c |] in
          for ci = 0 to c - 1 do
            Tensor.set pixel [| ci |] (Tensor.get input [| ci; y; x |])
          done;
          let d = K.dense ~input:pixel ~weights:wmat in
          for ko = 0 to k - 1 do
            if Tensor.get d [| ko |] <> Tensor.get conv [| ko; y; x |] then ok := false
          done
        done
      done;
      !ok)

let prop_depthwise_equals_grouped_conv =
  Helpers.qtest ~count:50 "depthwise == conv groups=c"
    QCheck.(pair (int_range 1 4) int)
    (fun (c, seed) ->
      let rng = Util.Rng.create seed in
      let input = Tensor.random rng Dtype.I8 [| c; 5; 5 |] in
      let weights = Tensor.random rng Dtype.I8 [| c; 1; 3; 3 |] in
      let dw = K.conv2d ~input ~weights { K.conv_default with groups = c } in
      (* Channel [ch] of a depthwise conv is the plain conv of input
         channel [ch] with kernel [ch]. *)
      let channel t shape ch =
        let n = Array.fold_left ( * ) 1 shape in
        Tensor.of_array (Tensor.dtype t) shape
          (Array.init n (fun i -> Tensor.get_flat t ((ch * n) + i)))
      in
      List.for_all
        (fun ch ->
          Tensor.equal
            (channel dw [| 1; 3; 3 |] ch)
            (K.conv2d
               ~input:(channel input [| 1; 5; 5 |] ch)
               ~weights:(channel weights [| 1; 1; 3; 3 |] ch)
               K.conv_default))
        (List.init c Fun.id))

let prop_requantize_in_range =
  Helpers.qtest "requantize output in dtype range"
    QCheck.(pair (int_range 0 8) int)
    (fun (shift, seed) ->
      let t = Tensor.random (Util.Rng.create seed) Dtype.I32 [| 16 |] in
      let out = K.requantize ~shift ~out_dtype:Dtype.I8 t in
      Tensor.fold (fun ok v -> ok && Dtype.in_range Dtype.I8 v) true out)

let prop_requantize_monotone =
  Helpers.qtest "requantize is monotone" QCheck.(pair (int_range 0 8) (pair int int))
    (fun (shift, (a, b)) ->
      let a = a mod 1_000_000 and b = b mod 1_000_000 in
      let lo = min a b and hi = max a b in
      let t = Tensor.of_array Dtype.I32 [| 2 |] [| lo; hi |] in
      let out = K.requantize ~shift ~out_dtype:Dtype.I8 t in
      Tensor.get out [| 0 |] <= Tensor.get out [| 1 |])

let prop_ternary_conv_bounded =
  (* Ternary weights bound the accumulator by the receptive field size *
     max |activation|, the property the analog IMC range model relies on. *)
  Helpers.qtest ~count:50 "ternary conv bounded" QCheck.int (fun seed ->
      let rng = Util.Rng.create seed in
      let input = Tensor.random rng Dtype.U7 [| 3; 5; 5 |] in
      let weights = Tensor.random rng Dtype.Ternary [| 2; 3; 3; 3 |] in
      let out = K.conv2d ~input ~weights K.conv_default in
      let bound = 3 * 3 * 3 * 127 in
      Tensor.fold (fun ok v -> ok && abs v <= bound) true out)

let prop_max_pool_dominates_avg =
  Helpers.qtest ~count:50 "max pool >= avg pool" (Helpers.arbitrary_chw Dtype.I8)
    (fun t ->
      let h = Tensor.dim t 1 and w = Tensor.dim t 2 in
      if h < 2 || w < 2 then true
      else
        let m = K.max_pool ~pool:(2, 2) ~stride:(2, 2) t in
        let a = K.avg_pool ~pool:(2, 2) ~stride:(2, 2) t in
        let ok = ref true in
        Tensor.iteri_flat (fun i v -> if v < Tensor.get_flat a i then ok := false) m;
        !ok)

let suites =
  [ ( "nn-kernels",
      [ Alcotest.test_case "conv identity" `Quick test_conv_identity_kernel;
        Alcotest.test_case "conv hand case" `Quick test_conv_hand_case;
        Alcotest.test_case "conv padding" `Quick test_conv_padding;
        Alcotest.test_case "conv stride" `Quick test_conv_stride;
        Alcotest.test_case "conv multi-channel" `Quick test_conv_multi_channel;
        Alcotest.test_case "conv out dims" `Quick test_conv_out_dims;
        Alcotest.test_case "conv bad groups" `Quick test_conv_rejects_bad_groups;
        Alcotest.test_case "depthwise hand case" `Quick test_depthwise_hand_case;
        Alcotest.test_case "dense hand case" `Quick test_dense_hand_case;
        Alcotest.test_case "bias broadcast" `Quick test_bias_add_broadcast;
        Alcotest.test_case "requantize" `Quick test_requantize_shift_clip_cast;
        Alcotest.test_case "requantize relu" `Quick test_requantize_relu;
        Alcotest.test_case "requantize asr" `Quick test_requantize_negative_shift_rounds_down;
        Alcotest.test_case "relu" `Quick test_relu;
        Alcotest.test_case "add" `Quick test_add;
        Alcotest.test_case "max pool" `Quick test_max_pool;
        Alcotest.test_case "avg pool" `Quick test_avg_pool;
        Alcotest.test_case "avg pool negative" `Quick test_avg_pool_negative_truncation;
        Alcotest.test_case "global avg pool" `Quick test_global_avg_pool;
        Alcotest.test_case "softmax argmax" `Quick test_softmax_preserves_argmax;
        Alcotest.test_case "softmax uniform" `Quick test_softmax_uniform;
        Alcotest.test_case "flatten" `Quick test_flatten;
        prop_conv_linear_in_weights;
        prop_conv_1x1_equals_dense_per_pixel;
        prop_depthwise_equals_grouped_conv;
        prop_requantize_in_range;
        prop_requantize_monotone;
        prop_ternary_conv_bounded;
        prop_max_pool_dominates_avg;
      ] )
  ]
