(* Tests for lib/pattern (library name: byoc): the pattern DSL, layer
   extraction, and the BYOC partitioner. *)

module Dtype = Tensor.Dtype
module G = Ir.Graph
module B = Ir.Graph.Builder

let rng () = Util.Rng.create 17

(* conv(3x3, pad1) -> bias -> requant(+relu) *)
let conv_net ?(relu = true) () =
  let b = B.create () in
  let x = B.input b ~name:"x" Dtype.I8 [| 4; 8; 8 |] in
  let w = B.const b (Tensor.random (rng ()) Dtype.I8 [| 8; 4; 3; 3 |]) in
  let bias = B.const b (Tensor.random (rng ()) Dtype.I32 [| 8 |]) in
  let conv = B.conv2d b ~padding:(1, 1) x ~weights:w in
  let biased = B.bias_add b conv ~bias in
  let out = B.requantize b ~relu ~shift:9 ~out_dtype:Dtype.I8 biased in
  B.finish b ~output:out

let accept_all = (fun (_ : Ir.Layer.t) -> true)

let digital_target ?(priority = 1) ?(accept = accept_all) () =
  {
    Byoc.Partition.name = "diana_digital";
    patterns = Byoc.Library.all;
    accept;
    priority;
    estimate = None;
  }

let test_conv_pattern_matches () =
  let g = conv_net () in
  let found = Helpers.find_all g Byoc.Library.conv2d_pattern in
  Alcotest.(check int) "exactly one match" 1 (List.length found);
  let m = List.hd found in
  Alcotest.(check int) "rooted at the cast" (G.output g) m.Byoc.Pattern.root;
  Alcotest.(check int) "five fused ops" 5 (List.length m.Byoc.Pattern.matched);
  Alcotest.(check int) "one data input" 1 (List.length m.Byoc.Pattern.inputs);
  Alcotest.(check int) "three consts: w, bias, shift" 3
    (List.length m.Byoc.Pattern.consts)

let test_pattern_rejects_wrong_root () =
  let g = conv_net () in
  (* Rooted at the conv itself, the full pattern cannot match. *)
  Alcotest.(check bool) "no match at conv" true
    (Byoc.Pattern.matches g Byoc.Library.conv2d_pattern ~at:3 = None)

let test_has_attr_filters () =
  let g = conv_net () in
  let strided_only =
    Byoc.Pattern.has_attr
      (function Ir.Op.Conv2d { stride = (2, 2); _ } -> true | _ -> false)
      (Byoc.Pattern.is_op "nn.conv2d" [ Byoc.Pattern.wildcard; Byoc.Pattern.is_constant ])
  in
  Alcotest.(check int) "stride-2 pattern finds nothing" 0
    (List.length (Helpers.find_all g strided_only));
  let any_conv =
    Byoc.Pattern.is_op "nn.conv2d" [ Byoc.Pattern.wildcard; Byoc.Pattern.is_constant ]
  in
  Alcotest.(check int) "plain conv found" 1 (List.length (Helpers.find_all g any_conv))

let test_has_attr_requires_op () =
  Alcotest.check_raises "wildcard refuses attr"
    (Invalid_argument "Pattern.has_attr: expected an operator pattern") (fun () ->
      ignore (Byoc.Pattern.has_attr (fun _ -> true) Byoc.Pattern.wildcard))

let test_optional_combinator () =
  (* optional relu wrap: matches both bare add and relu(add). *)
  let base = Byoc.Pattern.is_op "add" [ Byoc.Pattern.wildcard; Byoc.Pattern.wildcard ] in
  let pat = Byoc.Pattern.optional (fun p -> Byoc.Pattern.is_op "nn.relu" [ p ]) base in
  let b = B.create () in
  let x = B.input b ~name:"x" Dtype.I8 [| 2 |] in
  let s = B.add b x x in
  let r = B.relu b s in
  let g = B.finish b ~output:r in
  (match Byoc.Pattern.matches g pat ~at:r with
  | Some m -> Alcotest.(check int) "extended form takes both ops" 2 (List.length m.matched)
  | None -> Alcotest.fail "expected relu(add) match");
  match Byoc.Pattern.matches g pat ~at:s with
  | Some m -> Alcotest.(check int) "base form takes one op" 1 (List.length m.matched)
  | None -> Alcotest.fail "expected bare add match"

let test_extract_conv_layer () =
  let g = conv_net () in
  let tys = Ir.Infer.infer g in
  let m = List.hd (Helpers.find_all g Byoc.Library.conv2d_pattern) in
  match Byoc.Extract.to_layer g tys m with
  | Error e -> Alcotest.failf "extraction failed: %s" e
  | Ok l ->
      Alcotest.(check bool) "relu" true l.Ir.Layer.relu;
      Alcotest.(check (option int)) "shift" (Some 9) l.Ir.Layer.shift;
      Alcotest.(check bool) "weights present" true (l.Ir.Layer.weights <> None);
      Alcotest.(check bool) "bias present" true (l.Ir.Layer.bias <> None);
      Alcotest.(check (list int)) "in" [ 4; 8; 8 ] (Array.to_list l.Ir.Layer.in_shape);
      Alcotest.(check (list int)) "out" [ 8; 8; 8 ] (Array.to_list l.Ir.Layer.out_shape)

let test_extract_no_relu () =
  let g = conv_net ~relu:false () in
  let tys = Ir.Infer.infer g in
  let m = List.hd (Helpers.find_all g Byoc.Library.conv2d_pattern) in
  match Byoc.Extract.to_layer g tys m with
  | Error e -> Alcotest.failf "extraction failed: %s" e
  | Ok l -> Alcotest.(check bool) "no relu" false l.Ir.Layer.relu

let test_extract_execute_equals_eval () =
  (* The extracted layer must compute exactly what the matched subgraph
     computes — the key soundness property of extraction. *)
  let g = conv_net () in
  let tys = Ir.Infer.infer g in
  let m = List.hd (Helpers.find_all g Byoc.Library.conv2d_pattern) in
  let l = Result.get_ok (Byoc.Extract.to_layer g tys m) in
  let x = Tensor.random (Util.Rng.create 23) Dtype.I8 [| 4; 8; 8 |] in
  Helpers.check_tensor "layer semantics"
    (Ir.Eval.run g ~inputs:[ ("x", x) ])
    (Ir.Layer.execute l x)

(* Multi-layer net: conv block -> maxpool (host) -> flatten -> dense block
   -> softmax (host). *)
let mixed_net () =
  let b = B.create () in
  let x = B.input b ~name:"x" Dtype.I8 [| 2; 8; 8 |] in
  let w1 = B.const b (Tensor.random (rng ()) Dtype.I8 [| 4; 2; 3; 3 |]) in
  let bias1 = B.const b (Tensor.random (rng ()) Dtype.I32 [| 4 |]) in
  let conv = B.conv2d b ~padding:(1, 1) x ~weights:w1 in
  let biased = B.bias_add b conv ~bias:bias1 in
  let q1 = B.requantize b ~relu:true ~shift:9 ~out_dtype:Dtype.I8 biased in
  let pooled = B.max_pool b ~pool:(2, 2) ~stride:(2, 2) q1 in
  let flat = B.reshape b [| 4 * 4 * 4 |] pooled in
  let w2 = B.const b (Tensor.random (rng ()) Dtype.I8 [| 10; 64 |]) in
  let bias2 = B.const b (Tensor.random (rng ()) Dtype.I32 [| 10 |]) in
  let fc = B.dense b flat ~weights:w2 in
  let biased2 = B.bias_add b fc ~bias:bias2 in
  let q2 = B.requantize b ~shift:7 ~out_dtype:Dtype.I8 biased2 in
  let out = B.softmax b q2 in
  B.finish b ~output:out

let test_partition_mixed_net () =
  let g = mixed_net () in
  let plan = Byoc.Partition.run g ~targets:[ digital_target () ] in
  (* The maxpool fuses into the conv region (output-stage pooling), so two
     offloaded segments remain: conv+pool and dense. *)
  Alcotest.(check int) "conv+pool and dense offloaded" 2
    (Helpers.offload_count plan);
  (* reshape and softmax remain on the host. *)
  Alcotest.(check int) "two host ops" 2 (Helpers.host_count plan);
  let kinds =
    List.map
      (function
        | Byoc.Partition.Offload { target; _ } -> target
        | Byoc.Partition.Host _ -> "cpu")
      plan.Byoc.Partition.segments
  in
  Alcotest.(check (list string)) "order"
    [ "diana_digital"; "cpu"; "diana_digital"; "cpu" ]
    kinds;
  (* The fused segment's layer carries the pool. *)
  match plan.Byoc.Partition.segments with
  | Byoc.Partition.Offload { layer; _ } :: _ ->
      Alcotest.(check bool) "pool fused" true (layer.Ir.Layer.fused_pool <> None);
      Alcotest.(check (list int)) "pooled output" [ 4; 4; 4 ]
        (Array.to_list layer.Ir.Layer.out_shape)
  | _ -> Alcotest.fail "expected the fused conv first"

let test_partition_respects_accept () =
  let g = mixed_net () in
  let no_dense =
    digital_target
      ~accept:(fun l -> match l.Ir.Layer.kind with Ir.Layer.Dense -> false | _ -> true)
      ()
  in
  let plan = Byoc.Partition.run g ~targets:[ no_dense ] in
  Alcotest.(check int) "only conv+pool offloaded" 1 (Helpers.offload_count plan);
  (* The dense block's five ops, reshape and softmax fall back to the host. *)
  Alcotest.(check int) "hosts absorb the dense chain" 7 (Helpers.host_count plan)

let test_partition_priority () =
  let g = conv_net () in
  let low = { (digital_target ()) with Byoc.Partition.name = "slow_accel"; priority = 1 } in
  let high = { (digital_target ()) with Byoc.Partition.name = "fast_accel"; priority = 9 } in
  let plan = Byoc.Partition.run g ~targets:[ low; high ] in
  match plan.Byoc.Partition.segments with
  | [ Byoc.Partition.Offload { target; _ } ] ->
      Alcotest.(check string) "high priority wins" "fast_accel" target
  | _ -> Alcotest.fail "expected a single offloaded segment"

let test_partition_cost_based_dispatch () =
  (* Two accelerators accept the same conv; the one claiming fewer cycles
     is selected regardless of priority order (paper Sec. III-A: "the flow
     selects the one best optimized for that given operation"). *)
  let g = conv_net () in
  let fast =
    { (digital_target ()) with
      Byoc.Partition.name = "fast_for_this"; priority = 1; estimate = Some (fun _ -> 100) }
  in
  let slow =
    { (digital_target ()) with
      Byoc.Partition.name = "slow_for_this"; priority = 9; estimate = Some (fun _ -> 10_000) }
  in
  let plan = Byoc.Partition.run g ~targets:[ slow; fast ] in
  (match plan.Byoc.Partition.segments with
  | [ Byoc.Partition.Offload { target; _ } ] ->
      Alcotest.(check string) "lowest estimate wins" "fast_for_this" target
  | _ -> Alcotest.fail "expected a single offloaded segment");
  (* Estimates can depend on the layer: a geometry-sensitive rule flips
     the winner per layer. *)
  let by_size name cheap_when_small =
    { (digital_target ()) with
      Byoc.Partition.name = name;
      estimate =
        Some
          (fun l ->
            let big = Ir.Layer.macs l > 100_000 in
            if big = cheap_when_small then 10_000 else 100);
    }
  in
  let plan =
    Byoc.Partition.run g ~targets:[ by_size "small_accel" true; by_size "big_accel" false ]
  in
  match plan.Byoc.Partition.segments with
  | [ Byoc.Partition.Offload { target; _ } ] ->
      (* conv_net's conv is 4x8x8 -> 8x8x8 k3x3 = 18.4k MACs: small. *)
      Alcotest.(check string) "geometry-dependent choice" "small_accel" target
  | _ -> Alcotest.fail "expected a single offloaded segment"

let test_partition_interior_reuse_blocks_fusion () =
  (* The conv result feeds both the requant chain and a second consumer, so
     the region cannot be fused away. *)
  let b = B.create () in
  let x = B.input b ~name:"x" Dtype.I8 [| 2; 4; 4 |] in
  let w = B.const b (Tensor.random (rng ()) Dtype.I8 [| 2; 2; 1; 1 |]) in
  let conv = B.conv2d b x ~weights:w in
  let q = B.requantize b ~shift:7 ~out_dtype:Dtype.I8 conv in
  let leak = B.requantize b ~shift:3 ~out_dtype:Dtype.I8 conv in
  let out = B.add b q leak in
  let g = B.finish b ~output:out in
  let plan = Byoc.Partition.run g ~targets:[ digital_target () ] in
  (* Neither conv-requant chain may claim the shared conv. *)
  List.iter
    (function
      | Byoc.Partition.Offload { layer; _ } -> (
          match layer.Ir.Layer.kind with
          | Ir.Layer.Conv _ -> Alcotest.fail "shared conv must not be fused"
          | _ -> ())
      | Byoc.Partition.Host _ -> ())
    plan.Byoc.Partition.segments

let test_partition_segment_inputs () =
  let g = mixed_net () in
  let plan = Byoc.Partition.run g ~targets:[ digital_target () ] in
  let seg = List.hd plan.Byoc.Partition.segments in
  Alcotest.(check (list int)) "conv block reads the graph input" [ 0 ]
    (Byoc.Partition.segment_inputs g seg)

let test_partition_plan_printer () =
  let g = mixed_net () in
  let plan = Byoc.Partition.run g ~targets:[ digital_target () ] in
  let s = Format.asprintf "%a" Byoc.Partition.pp plan in
  Alcotest.(check bool) "mentions accelerator" true (Helpers.contains s "diana_digital");
  Alcotest.(check bool) "mentions cpu" true (Helpers.contains s "[cpu]")

let prop_partition_covers_all_apps =
  (* Every operator application lands in exactly one segment. *)
  Helpers.qtest ~count:20 "partition covers all ops exactly once" QCheck.bool (fun relu ->
      let g = if relu then mixed_net () else conv_net () in
      let plan = Byoc.Partition.run g ~targets:[ digital_target () ] in
      let covered =
        List.concat_map
          (function
            | Byoc.Partition.Host { id } -> [ id ]
            | Byoc.Partition.Offload { output; _ } ->
                (* Count the whole matched region via re-matching. *)
                (match
                   List.find_map
                     (fun p -> Byoc.Pattern.matches g p ~at:output)
                     Byoc.Library.all
                 with
                | Some m -> m.Byoc.Pattern.matched
                | None -> []))
          plan.Byoc.Partition.segments
        |> List.sort compare
      in
      let apps =
        List.filter
          (fun id -> match G.node g id with G.App _ -> true | _ -> false)
          (G.node_ids g)
      in
      covered = apps)

let suites =
  [ ( "byoc",
      [ Alcotest.test_case "conv pattern matches" `Quick test_conv_pattern_matches;
        Alcotest.test_case "wrong root" `Quick test_pattern_rejects_wrong_root;
        Alcotest.test_case "has_attr filters" `Quick test_has_attr_filters;
        Alcotest.test_case "has_attr requires op" `Quick test_has_attr_requires_op;
        Alcotest.test_case "optional combinator" `Quick test_optional_combinator;
        Alcotest.test_case "extract conv layer" `Quick test_extract_conv_layer;
        Alcotest.test_case "extract no relu" `Quick test_extract_no_relu;
        Alcotest.test_case "extract semantics" `Quick test_extract_execute_equals_eval;
        Alcotest.test_case "partition mixed net" `Quick test_partition_mixed_net;
        Alcotest.test_case "partition accept rules" `Quick test_partition_respects_accept;
        Alcotest.test_case "partition priority" `Quick test_partition_priority;
        Alcotest.test_case "cost-based dispatch" `Quick test_partition_cost_based_dispatch;
        Alcotest.test_case "interior reuse blocks fusion" `Quick
          test_partition_interior_reuse_blocks_fusion;
        Alcotest.test_case "segment inputs" `Quick test_partition_segment_inputs;
        Alcotest.test_case "plan printer" `Quick test_partition_plan_printer;
        prop_partition_covers_all_apps;
      ] )
  ]
