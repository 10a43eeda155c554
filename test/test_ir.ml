(* Tests for lib/ir: builder/validation, type inference, interpreter,
   rewrites and the normalized layer abstraction. *)

module Dtype = Tensor.Dtype
module G = Ir.Graph
module B = Ir.Graph.Builder

(* A small conv block: input -> conv(3x3, pad 1) -> bias -> requant+relu. *)
let conv_block ?(relu = true) ?(c = 2) ?(k = 3) ?(hw = 6) () =
  let rng = Util.Rng.create 99 in
  let b = B.create () in
  let x = B.input b ~name:"x" Dtype.I8 [| c; hw; hw |] in
  let w = B.const b (Tensor.random rng Dtype.I8 [| k; c; 3; 3 |]) in
  let bias = B.const b (Tensor.random (Util.Rng.create 7) Dtype.I32 [| k |]) in
  let conv = B.conv2d b ~padding:(1, 1) x ~weights:w in
  let biased = B.bias_add b conv ~bias in
  let out = B.requantize b ~relu ~shift:8 ~out_dtype:Dtype.I8 biased in
  B.finish b ~output:out

let test_builder_valid () =
  let g = conv_block () in
  (match G.validate g with
  | Ok () -> ()
  | Error e -> Alcotest.failf "expected valid graph: %s" e);
  Alcotest.(check int) "app count: conv,bias,shift,clip,cast" 5 (G.app_count g)

let test_builder_rejects_forward_ref () =
  let b = B.create () in
  Alcotest.check_raises "undefined arg"
    (Invalid_argument "Builder.app: argument not yet defined") (fun () ->
      ignore (B.app b Ir.Op.Relu [ 3 ]))

let test_builder_rejects_arity () =
  let b = B.create () in
  let x = B.input b ~name:"x" Dtype.I8 [| 1 |] in
  Alcotest.check_raises "arity" (Invalid_argument "Builder.app: nn.relu arity mismatch")
    (fun () -> ignore (B.app b Ir.Op.Relu [ x; x ]))

let test_consumers () =
  let b = B.create () in
  let x = B.input b ~name:"x" Dtype.I8 [| 2 |] in
  let r1 = B.relu b x in
  let r2 = B.relu b x in
  let s = B.add b r1 r2 in
  let d = B.add b s s in
  let g = B.finish b ~output:d in
  let users = G.consumer_index g in
  Alcotest.(check (list int)) "x feeds both relus" [ r1; r2 ] users.(x);
  Alcotest.(check (list int)) "r1 feeds add" [ s ] users.(r1);
  Alcotest.(check (list int)) "add s s lists its reader once" [ d ] users.(s);
  Alcotest.(check (list int)) "the output has no users" [] users.(d)

(* The users of node [i] by a full scan, as the index must list them. *)
let naive_consumers g i =
  List.filter
    (fun j -> match G.node g j with G.App { args; _ } -> List.mem i args | _ -> false)
    (G.node_ids g)

let check_consumer_index label g =
  let index = G.consumer_index g in
  Alcotest.(check int) (label ^ ": one entry per node") (G.length g) (Array.length index);
  Array.iteri
    (fun i users ->
      Alcotest.(check (list int))
        (Printf.sprintf "%s: users of %%%d" label i)
        (naive_consumers g i) users)
    index

let test_consumer_index_matches_scan () =
  List.iter
    (fun (model, config) ->
      let _, _, policy =
        List.find (fun (c, _, _) -> c = config) Check.Golden.configurations
      in
      check_consumer_index (model ^ "/" ^ config)
        ((Models.Zoo.find model).Models.Zoo.build policy))
    Check.Golden.cases;
  for seed = 0 to 199 do
    check_consumer_index (Printf.sprintf "gen %d" seed) (Check.Gen.generate seed)
  done

let test_inputs_listing () =
  let b = B.create () in
  let x = B.input b ~name:"x" Dtype.I8 [| 2 |] in
  let y = B.input b ~name:"y" Dtype.I8 [| 2 |] in
  let g = B.finish b ~output:(B.add b x y) in
  let names = List.map (fun (_, n, _, _) -> n) (G.inputs g) in
  Alcotest.(check (list string)) "both inputs" [ "x"; "y" ] names

let test_duplicate_input_names_invalid () =
  let b = B.create () in
  let x = B.input b ~name:"x" Dtype.I8 [| 2 |] in
  let y = B.input b ~name:"x" Dtype.I8 [| 2 |] in
  let g = B.finish b ~output:(B.add b x y) in
  match G.validate g with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate input names must be rejected"

let test_infer_conv_block () =
  let g = conv_block ~c:2 ~k:3 ~hw:6 () in
  let ty = Ir.Infer.output_ty g in
  Alcotest.(check (list int)) "shape" [ 3; 6; 6 ] (Array.to_list ty.Ir.Infer.shape);
  Alcotest.(check string) "dtype" "i8" (Dtype.to_string ty.Ir.Infer.dtype)

let test_infer_strided_conv () =
  let b = B.create () in
  let x = B.input b ~name:"x" Dtype.I8 [| 8; 32; 32 |] in
  let w = B.const b (Tensor.create Dtype.I8 [| 16; 8; 3; 3 |]) in
  let conv = B.conv2d b ~stride:(2, 2) ~padding:(1, 1) x ~weights:w in
  let g = B.finish b ~output:conv in
  let ty = Ir.Infer.output_ty g in
  Alcotest.(check (list int)) "halved" [ 16; 16; 16 ] (Array.to_list ty.Ir.Infer.shape);
  Alcotest.(check string) "accumulates i32" "i32" (Dtype.to_string ty.Ir.Infer.dtype)

let test_infer_rejects_bad_dense () =
  let b = B.create () in
  let x = B.input b ~name:"x" Dtype.I8 [| 10 |] in
  let w = B.const b (Tensor.create Dtype.I8 [| 4; 9 |]) in
  let g = B.finish b ~output:(B.dense b x ~weights:w) in
  Alcotest.check_raises "dense mismatch"
    (Ir.Infer.Type_error "node 2: dense: weights expect 9 inputs, data has 10") (fun () ->
      ignore (Ir.Infer.infer g))

let test_infer_rejects_bad_bias () =
  let b = B.create () in
  let x = B.input b ~name:"x" Dtype.I32 [| 4; 2; 2 |] in
  let bias = B.const b (Tensor.create Dtype.I32 [| 3 |]) in
  let g = B.finish b ~output:(B.bias_add b x ~bias) in
  (try
     ignore (Ir.Infer.infer g);
     Alcotest.fail "expected type error"
   with Ir.Infer.Type_error _ -> ())

let test_eval_matches_kernels () =
  let g = conv_block () in
  let rng = Util.Rng.create 5 in
  let x = Tensor.random rng Dtype.I8 [| 2; 6; 6 |] in
  let via_graph = Ir.Eval.run g ~inputs:[ ("x", x) ] in
  (* Recompute by hand with the same constants pulled out of the graph. *)
  let w = match G.node g 1 with G.Const t -> t | _ -> Alcotest.fail "const w" in
  let bias = match G.node g 2 with G.Const t -> t | _ -> Alcotest.fail "const b" in
  let conv =
    Nn.Kernels.conv2d ~input:x ~weights:w
      { Nn.Kernels.conv_default with padding = (1, 1) }
  in
  let manual =
    Nn.Kernels.requantize ~relu:true ~shift:8 ~out_dtype:Dtype.I8
      (Nn.Kernels.bias_add conv bias)
  in
  Helpers.check_tensor "graph == manual" manual via_graph

let test_eval_missing_input () =
  let g = conv_block () in
  Alcotest.check_raises "missing" (Invalid_argument "eval: missing input x") (fun () ->
      ignore (Ir.Eval.run g ~inputs:[]))

let test_eval_unknown_input () =
  let g = conv_block () in
  let x = Tensor.create Dtype.I8 [| 2; 6; 6 |] in
  Alcotest.check_raises "unknown" (Invalid_argument "eval: unknown input y") (fun () ->
      ignore (Ir.Eval.run g ~inputs:[ ("x", x); ("y", x) ]))

let test_eval_wrong_shape () =
  let g = conv_block () in
  let x = Tensor.create Dtype.I8 [| 2; 5; 5 |] in
  Alcotest.check_raises "shape" (Invalid_argument "eval: input x has wrong type") (fun () ->
      ignore (Ir.Eval.run g ~inputs:[ ("x", x) ]))

let test_constant_fold () =
  (* relu(const) collapses to a const; the input-dependent part stays. *)
  let b = B.create () in
  let x = B.input b ~name:"x" Dtype.I8 [| 2 |] in
  let c = B.const b (Tensor.of_array Dtype.I8 [| 2 |] [| -3; 4 |]) in
  let folded = B.relu b c in
  let g = B.finish b ~output:(B.add b x folded) in
  let g' = Ir.Rewrite.simplify g in
  let is_const i = match G.node g' i with G.Const _ -> true | _ -> false in
  let folded_consts = List.filter is_const (G.node_ids g') in
  (* The folded constant replaces relu(c); c itself is then dead. *)
  Alcotest.(check int) "relu(const) folded" 1 (List.length folded_consts);
  Alcotest.(check int) "one app left" 1 (G.app_count g')

let test_dce () =
  let b = B.create () in
  let x = B.input b ~name:"x" Dtype.I8 [| 2 |] in
  let _dead = B.add b x x in
  let live = B.relu b x in
  let g = B.finish b ~output:live in
  let g' = Ir.Rewrite.simplify g in
  Alcotest.(check int) "dead op dropped" 1 (G.app_count g');
  Alcotest.(check int) "two nodes left" 2 (G.length g')

let test_simplify_preserves_semantics () =
  let g = conv_block () in
  let g' = Ir.Rewrite.simplify g in
  let x = Tensor.random (Util.Rng.create 21) Dtype.I8 [| 2; 6; 6 |] in
  Helpers.check_tensor "same output"
    (Ir.Eval.run g ~inputs:[ ("x", x) ])
    (Ir.Eval.run g' ~inputs:[ ("x", x) ])

(* --- Layer --- *)

let sample_conv_layer () =
  let rng = Util.Rng.create 1 in
  {
    Ir.Layer.kind = Ir.Layer.Conv { Nn.Kernels.conv_default with padding = (1, 1) };
    fused_pool = None;
    weights = Some (Tensor.random rng Dtype.I8 [| 4; 2; 3; 3 |]);
    bias = Some (Tiling_fixtures.bias_tensor rng 4);
    shift = Some 8;
    relu = true;
    in_shape = [| 2; 8; 8 |];
    in2_shape = None;
    out_shape = [| 4; 8; 8 |];
    in_dtype = Dtype.I8;
    out_dtype = Dtype.I8;
  }

let test_layer_macs () =
  let l = sample_conv_layer () in
  (* 4*8*8 outputs x 2 channels x 9 taps *)
  Alcotest.(check int) "macs" (4 * 8 * 8 * 2 * 9) (Ir.Layer.macs l)

let test_layer_describe () =
  let l = sample_conv_layer () in
  Alcotest.(check string) "describe" "conv2d 2x8x8 -> 4x8x8 k3x3 s1x1"
    (Ir.Layer.describe l)

let test_layer_validate () =
  let l = sample_conv_layer () in
  (match Ir.Layer.validate l with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid layer rejected: %s" e);
  let bad = { l with out_shape = [| 4; 9; 9 |] } in
  match Ir.Layer.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "inconsistent geometry accepted"

let test_layer_execute_matches_manual () =
  let l = sample_conv_layer () in
  let x = Tensor.random (Util.Rng.create 3) Dtype.I8 [| 2; 8; 8 |] in
  let manual =
    Nn.Kernels.requantize ~relu:true ~shift:8 ~out_dtype:Dtype.I8
      (Nn.Kernels.bias_add
         (Nn.Kernels.conv2d ~input:x ~weights:(Option.get l.Ir.Layer.weights)
            { Nn.Kernels.conv_default with padding = (1, 1) })
         (Option.get l.Ir.Layer.bias))
  in
  Helpers.check_tensor "layer == manual" manual (Ir.Layer.execute l x)

let test_layer_depthwise_flag () =
  let rng = Util.Rng.create 2 in
  let dw =
    {
      Ir.Layer.kind = Ir.Layer.Conv { Nn.Kernels.conv_default with groups = 4 };
      fused_pool = None;
      weights = Some (Tensor.random rng Dtype.I8 [| 4; 1; 3; 3 |]);
      bias = None;
      shift = Some 6;
      relu = false;
      in_shape = [| 4; 8; 8 |];
      in2_shape = None;
      out_shape = [| 4; 6; 6 |];
      in_dtype = Dtype.I8;
      out_dtype = Dtype.I8;
    }
  in
  Alcotest.(check bool) "dw" true (Ir.Layer.is_depthwise dw);
  Alcotest.(check bool) "plain conv not dw" false
    (Ir.Layer.is_depthwise (sample_conv_layer ()));
  Alcotest.(check string) "describe dw" "dwconv2d 4x8x8 -> 4x6x6 k3x3 s1x1"
    (Ir.Layer.describe dw)

let test_layer_add_execute () =
  let l =
    {
      Ir.Layer.kind = Ir.Layer.Add;
      fused_pool = None;
      weights = None;
      bias = None;
      shift = Some 1;
      relu = false;
      in_shape = [| 2; 2; 2 |];
      in2_shape = Some [| 2; 2; 2 |];
      out_shape = [| 2; 2; 2 |];
      in_dtype = Dtype.I8;
      out_dtype = Dtype.I8;
    }
  in
  let a = Tensor.random (Util.Rng.create 4) Dtype.I8 [| 2; 2; 2 |] in
  let b = Tensor.random (Util.Rng.create 5) Dtype.I8 [| 2; 2; 2 |] in
  let manual =
    Nn.Kernels.requantize ~shift:1 ~out_dtype:Dtype.I8 (Nn.Kernels.add a b)
  in
  Helpers.check_tensor "add layer" manual (Ir.Layer.execute l ~second:b a)

let test_op_names () =
  Alcotest.(check string) "conv" "nn.conv2d" (Ir.Op.name (Ir.Op.Conv2d Nn.Kernels.conv_default));
  Alcotest.(check string) "shift" "right_shift" (Ir.Op.name Ir.Op.Right_shift);
  Alcotest.(check string) "cast" "cast" (Ir.Op.name (Ir.Op.Cast Dtype.I8));
  Alcotest.(check int) "conv arity" 2 (Ir.Op.arity (Ir.Op.Conv2d Nn.Kernels.conv_default));
  Alcotest.(check int) "relu arity" 1 (Ir.Op.arity Ir.Op.Relu)

let test_graph_pp_roundtrip_mentions_ops () =
  let g = conv_block () in
  let s = G.to_string g in
  List.iter
    (fun needle ->
      if not (Helpers.contains s needle) then Alcotest.failf "printer lacks %s" needle)
    [ "nn.conv2d"; "nn.bias_add"; "right_shift"; "clip"; "cast"; "output" ]

(* A fused pool shrinks [out_shape], not the convolution: its MACs are
   counted over the 8x8 pre-pool extent either way. *)
let test_layer_pre_pool_dims () =
  let l = sample_conv_layer () in
  let pooled =
    { l with
      Ir.Layer.fused_pool = Some { Ir.Op.pool = (2, 2); pool_stride = (2, 2) };
      out_shape = [| 4; 4; 4 |] }
  in
  Alcotest.(check int) "pre-pool extent" (Ir.Layer.macs l) (Ir.Layer.macs pooled)

let test_op_pp_attributes () =
  Alcotest.(check string) "conv attrs"
    "nn.conv2d{stride=2x2 pad=1x1 groups=4}"
    (Ir.Op.to_string
       (Ir.Op.Conv2d { stride = (2, 2); padding = (1, 1); groups = 4 }));
  Alcotest.(check string) "clip attrs" "clip{0,127}"
    (Ir.Op.to_string (Ir.Op.Clip { lo = 0; hi = 127 }));
  Alcotest.(check string) "concat" "concatenate" (Ir.Op.to_string Ir.Op.Concat)

let prop_eval_deterministic =
  Helpers.qtest ~count:30 "interpreter is deterministic" QCheck.int (fun seed ->
      let g = conv_block () in
      let x = Tensor.random (Util.Rng.create seed) Dtype.I8 [| 2; 6; 6 |] in
      Tensor.equal (Ir.Eval.run g ~inputs:[ ("x", x) ]) (Ir.Eval.run g ~inputs:[ ("x", x) ]))

let prop_simplify_preserves =
  Helpers.qtest ~count:30 "simplify preserves semantics" QCheck.int (fun seed ->
      let g = conv_block ~relu:(seed land 1 = 0) () in
      let g' = Ir.Rewrite.simplify g in
      let x = Tensor.random (Util.Rng.create seed) Dtype.I8 [| 2; 6; 6 |] in
      Tensor.equal (Ir.Eval.run g ~inputs:[ ("x", x) ]) (Ir.Eval.run g' ~inputs:[ ("x", x) ]))

let suites =
  [ ( "ir",
      [ Alcotest.test_case "builder valid" `Quick test_builder_valid;
        Alcotest.test_case "builder forward ref" `Quick test_builder_rejects_forward_ref;
        Alcotest.test_case "builder arity" `Quick test_builder_rejects_arity;
        Alcotest.test_case "consumers" `Quick test_consumers;
        Alcotest.test_case "consumer index matches scan" `Quick
          test_consumer_index_matches_scan;
        Alcotest.test_case "inputs listing" `Quick test_inputs_listing;
        Alcotest.test_case "duplicate inputs invalid" `Quick test_duplicate_input_names_invalid;
        Alcotest.test_case "infer conv block" `Quick test_infer_conv_block;
        Alcotest.test_case "infer strided conv" `Quick test_infer_strided_conv;
        Alcotest.test_case "infer bad dense" `Quick test_infer_rejects_bad_dense;
        Alcotest.test_case "infer bad bias" `Quick test_infer_rejects_bad_bias;
        Alcotest.test_case "eval matches kernels" `Quick test_eval_matches_kernels;
        Alcotest.test_case "eval missing input" `Quick test_eval_missing_input;
        Alcotest.test_case "eval unknown input" `Quick test_eval_unknown_input;
        Alcotest.test_case "eval wrong shape" `Quick test_eval_wrong_shape;
        Alcotest.test_case "constant fold" `Quick test_constant_fold;
        Alcotest.test_case "dce" `Quick test_dce;
        Alcotest.test_case "simplify preserves" `Quick test_simplify_preserves_semantics;
        Alcotest.test_case "layer macs" `Quick test_layer_macs;
        Alcotest.test_case "layer describe" `Quick test_layer_describe;
        Alcotest.test_case "layer validate" `Quick test_layer_validate;
        Alcotest.test_case "layer execute" `Quick test_layer_execute_matches_manual;
        Alcotest.test_case "layer depthwise" `Quick test_layer_depthwise_flag;
        Alcotest.test_case "layer add" `Quick test_layer_add_execute;
        Alcotest.test_case "op names" `Quick test_op_names;
        Alcotest.test_case "op pp attributes" `Quick test_op_pp_attributes;
        Alcotest.test_case "layer pre-pool dims" `Quick test_layer_pre_pool_dims;
        Alcotest.test_case "graph printer" `Quick test_graph_pp_roundtrip_mentions_ops;
        prop_eval_deterministic;
        prop_simplify_preserves;
      ] )
  ]
