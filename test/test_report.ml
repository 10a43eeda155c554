(* Tests for the markdown deployment report and a few whole-pipeline
   corners: multi-input graphs and C emission coverage. *)

module B = Ir.Graph.Builder
module Dtype = Tensor.Dtype

let resnet_artifact () =
  let g = (Models.Zoo.find "resnet8").Models.Zoo.build Models.Policy.All_int8 in
  let artifact =
    Result.get_ok
      (Htvm.Compile.compile (Htvm.Compile.default_config Arch.Diana.digital_only) g)
  in
  let _, report = Htvm.Compile.run artifact ~inputs:(Models.Zoo.random_input g) in
  (artifact, report)

let test_report_sections () =
  let artifact, report = resnet_artifact () in
  let md = Htvm.Report.to_markdown artifact report in
  List.iter
    (fun needle ->
      if not (Helpers.contains md needle) then Alcotest.failf "report lacks %S" needle)
    [ "# HTVM deployment report"; "## Latency"; "## Steps"; "## Binary size";
      "## L2 memory"; "## Energy"; "diana_digital"; "dense 64 -> 10"; "ms" ]

let test_report_step_rows_match () =
  let artifact, report = resnet_artifact () in
  let md = Htvm.Report.to_markdown artifact report in
  let rows =
    List.filter
      (fun l -> String.length l > 2 && l.[0] = '|' && not (Helpers.contains l "---"))
      (String.split_on_char '\n' md)
  in
  (* steps table rows + header rows + size table rows *)
  Alcotest.(check bool) "one row per step" true
    (List.length rows
    >= List.length artifact.Htvm.Compile.layers
       + List.length artifact.Htvm.Compile.size.Codegen.Size.sections)

let test_multi_input_graph_end_to_end () =
  (* Two network inputs feeding a residual add, then a conv block: the
     buffer planner must bind both inputs. *)
  let b = B.create () in
  let rng = Util.Rng.create 12 in
  let x = B.input b ~name:"left" Dtype.I8 [| 4; 8; 8 |] in
  let y = B.input b ~name:"right" Dtype.I8 [| 4; 8; 8 |] in
  let s = B.add b x y in
  let q = B.requantize b ~shift:1 ~out_dtype:Dtype.I8 s in
  let w = B.const b (Tensor.random rng Dtype.I8 [| 8; 4; 3; 3 |]) in
  let conv = B.conv2d b ~padding:(1, 1) q ~weights:w in
  let out = B.requantize b ~relu:true ~shift:9 ~out_dtype:Dtype.I8 conv in
  let g = B.finish b ~output:out in
  let artifact =
    Result.get_ok
      (Htvm.Compile.compile (Htvm.Compile.default_config Arch.Diana.digital_only) g)
  in
  let inputs =
    [ ("left", Tensor.random (Util.Rng.create 1) Dtype.I8 [| 4; 8; 8 |]);
      ("right", Tensor.random (Util.Rng.create 2) Dtype.I8 [| 4; 8; 8 |]) ]
  in
  let out_t, _ = Htvm.Compile.run artifact ~inputs in
  Helpers.check_tensor "two-input graph exact" (Ir.Eval.run g ~inputs) out_t

let test_emit_c_covers_layer_kinds () =
  let emit layer =
    let s =
      Dory.Schedule.build layer ~accel_name:"diana_digital"
        ~tile:(Arch.Tile.full layer) ~double_buffer:false
    in
    Dory.Emit.emit_network [ (0, s) ]
  in
  Alcotest.(check bool) "conv" true
    (Helpers.contains (emit (Tiling_fixtures.conv_layer ())) "conv2d");
  Alcotest.(check bool) "dw" true
    (Helpers.contains (emit (Tiling_fixtures.dw_layer ())) "dwconv2d");
  Alcotest.(check bool) "dense" true
    (Helpers.contains (emit (Tiling_fixtures.dense_layer ())) "dense");
  Alcotest.(check bool) "add" true
    (Helpers.contains (emit (Tiling_fixtures.add_layer ())) "add")

let test_plan_printer_mentions_fused_pool () =
  let g = (Models.Zoo.find "resnet8").Models.Zoo.build Models.Policy.All_int8 in
  let plan =
    Byoc.Partition.run (Ir.Rewrite.simplify g)
      ~targets:
        [
          {
            Byoc.Partition.name = "d";
            patterns = Byoc.Library.all;
            accept = (fun _ -> true);
            priority = 1;
            estimate = None;
          };
        ]
  in
  let s = Format.asprintf "%a" Byoc.Partition.pp plan in
  Alcotest.(check bool) "printer lists layers" true (Helpers.contains s "conv2d")

let suites =
  [ ( "report",
      [ Alcotest.test_case "sections present" `Quick test_report_sections;
        Alcotest.test_case "step rows" `Quick test_report_step_rows_match;
        Alcotest.test_case "multi-input graph" `Quick test_multi_input_graph_end_to_end;
        Alcotest.test_case "emit C kinds" `Quick test_emit_c_covers_layer_kinds;
        Alcotest.test_case "plan printer" `Quick test_plan_printer_mentions_fused_pool;
      ] )
  ]
