(* Tests for lib/quant: float reference semantics, power-of-two PTQ,
   accuracy (SQNR) of the quantized graphs, and end-to-end deployment of a
   quantized float model through the whole HTVM flow. *)

let sample_inputs m n seed =
  let rng = Util.Rng.create seed in
  List.init n (fun _ -> Quant.Ftensor.random rng ~scale:1.0 m.Quant.Fmodel.f_input_shape)

let quantize_exn ?ternary m ~seed =
  let calibration = sample_inputs m 8 seed in
  match Quant.Quantize.quantize ?ternary ~calibration m with
  | Ok r -> r
  | Error e -> Alcotest.failf "quantize failed: %s" e

(* --- Ftensor --- *)

let test_ftensor_basics () =
  let t = Quant.Ftensor.of_array [| 2; 2 |] [| 1.0; -2.0; 3.0; -4.5 |] in
  Alcotest.(check (float 1e-9)) "get" (-4.5) (Quant.Ftensor.get t [| 1; 1 |]);
  Alcotest.(check (float 1e-9)) "abs max" 4.5 (Quant.Ftensor.abs_max t);
  let m = Quant.Ftensor.map (fun v -> v *. 2.0) t in
  Alcotest.(check (float 1e-9)) "map" 6.0 (Quant.Ftensor.get m [| 1; 0 |])

let test_sqnr () =
  let a = Quant.Ftensor.of_array [| 3 |] [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check bool) "identical = inf" true
    (Quant.Ftensor.sqnr_db ~reference:a a = infinity);
  let b = Quant.Ftensor.of_array [| 3 |] [| 1.1; 2.0; 3.0 |] in
  let db = Quant.Ftensor.sqnr_db ~reference:a b in
  Alcotest.(check bool) "noisy is finite positive" true (db > 0.0 && db < 100.0)

(* --- Fmodel --- *)

let test_fmodel_infer_shapes () =
  let m = Quant.Fmodel.random_cnn () in
  (match Quant.Fmodel.validate m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid model: %s" e);
  let x = Quant.Ftensor.random (Util.Rng.create 1) m.Quant.Fmodel.f_input_shape in
  let y = Quant.Fmodel.infer m x in
  Alcotest.(check (list int)) "5 classes" [ 5 ] (Array.to_list (Quant.Ftensor.dims y));
  let all = Quant.Fmodel.infer_all m x in
  Alcotest.(check int) "one activation per layer" 6 (List.length all)

let test_fmodel_relu_applied () =
  let w = Quant.Ftensor.of_array [| 1; 1 |] [| -1.0 |] in
  let m =
    {
      Quant.Fmodel.f_input_shape = [| 1 |];
      f_layers = [ Quant.Fmodel.Dense { w; bias = [| 0.0 |]; relu = true } ];
    }
  in
  let y = Quant.Fmodel.infer m (Quant.Ftensor.of_array [| 1 |] [| 5.0 |]) in
  Alcotest.(check (float 1e-9)) "relu clamps" 0.0 (Quant.Ftensor.get_flat y 0)

(* --- Quantizer --- *)

let test_quantized_graph_is_valid_and_matchable () =
  let m = Quant.Fmodel.random_cnn () in
  let g, _ = quantize_exn m ~seed:3 in
  (match Ir.Graph.validate g with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid graph: %s" e);
  (* The quantizer must emit the Listing-1 idiom the pattern matcher
     understands: all convs and denses end up offloadable. *)
  let plan =
    Byoc.Partition.run (Ir.Rewrite.simplify g)
      ~targets:
        [
          {
            Byoc.Partition.name = "diana_digital";
            patterns = Byoc.Library.all;
            accept = Arch.Diana.digital.Arch.Accel.supports;
            priority = 1;
            estimate = None;
          };
        ]
  in
  Alcotest.(check int) "3 offloadable layers" 3 (Helpers.offload_count plan)

let accuracy_check ?ternary m ~seed ~min_db =
  let g, meta = quantize_exn ?ternary m ~seed in
  let x = Quant.Ftensor.random (Util.Rng.create (seed + 99)) m.Quant.Fmodel.f_input_shape in
  let reference = Quant.Fmodel.infer m x in
  let qout = Ir.Eval.run g ~inputs:[ ("input", Quant.Quantize.quantize_input meta x) ] in
  let deq = Quant.Quantize.dequantize_output meta qout in
  let db = Quant.Ftensor.sqnr_db ~reference deq in
  if db < min_db then Alcotest.failf "SQNR too low: %.1f dB < %.1f dB" db min_db

let test_int8_cnn_accuracy () =
  accuracy_check (Quant.Fmodel.random_cnn ()) ~seed:5 ~min_db:15.0

let test_int8_mlp_accuracy () =
  accuracy_check (Quant.Fmodel.random_mlp ()) ~seed:6 ~min_db:15.0

let test_ternary_cnn_accuracy () =
  (* Ternary weights are lossy; just require usable signal. *)
  accuracy_check ~ternary:true (Quant.Fmodel.random_cnn ()) ~seed:7 ~min_db:2.0

let test_meta_scales_power_of_two () =
  let _, meta = quantize_exn (Quant.Fmodel.random_cnn ()) ~seed:8 in
  let is_pow2 v = Float.log2 v = Float.round (Float.log2 v) in
  Alcotest.(check bool) "input scale 2^n" true (is_pow2 meta.Quant.Quantize.input_scale);
  Alcotest.(check bool) "output scale 2^n" true (is_pow2 meta.Quant.Quantize.output_scale)

let test_empty_calibration_rejected () =
  match Quant.Quantize.quantize ~calibration:[] (Quant.Fmodel.random_cnn ()) with
  | Error e -> Alcotest.(check bool) "diagnosed" true (Helpers.contains e "calibration")
  | Ok _ -> Alcotest.fail "expected error"

let test_zero_calibration_rejected () =
  let m = Quant.Fmodel.random_mlp () in
  let zero = Quant.Ftensor.create m.Quant.Fmodel.f_input_shape in
  match Quant.Quantize.quantize ~calibration:[ zero ] m with
  | Error e -> Alcotest.(check bool) "diagnosed" true (Helpers.contains e "zero")
  | Ok _ -> Alcotest.fail "expected error"

let test_quantized_model_deploys_end_to_end () =
  (* Float model -> PTQ -> HTVM compile -> simulated DIANA, bit-exact
     against the interpreter: the whole paper pipeline from a float net. *)
  let m = Quant.Fmodel.random_cnn () in
  let g, meta = quantize_exn m ~seed:10 in
  let cfg = Htvm.Compile.default_config Arch.Diana.digital_only in
  match Htvm.Compile.compile cfg g with
  | Error e -> Alcotest.failf "compile failed: %s" (Htvm.Compile.error_to_string e)
  | Ok artifact ->
      let x = Quant.Ftensor.random (Util.Rng.create 11) m.Quant.Fmodel.f_input_shape in
      let qx = Quant.Quantize.quantize_input meta x in
      let out, _ = Htvm.Compile.run artifact ~inputs:[ ("input", qx) ] in
      Helpers.check_tensor "simulated == interpreted"
        (Ir.Eval.run g ~inputs:[ ("input", qx) ])
        out

let prop_quantizer_monotone_requants =
  (* Every emitted right_shift amount is non-negative (shifts can only
     divide) — required for exactness of the asr requant idiom. *)
  Helpers.qtest ~count:20 "all shifts non-negative" QCheck.(int_range 0 1000)
    (fun seed ->
      let m = Quant.Fmodel.random_cnn ~seed () in
      let g, _ = quantize_exn m ~seed in
      List.for_all
        (fun id ->
          match Ir.Graph.node g id with
          | Ir.Graph.App { op = Ir.Op.Right_shift; args = [ _; s ] } -> (
              match Ir.Graph.node g s with
              | Ir.Graph.Const t -> Tensor.get_flat t 0 >= 0
              | _ -> false)
          | _ -> true)
        (Ir.Graph.node_ids g))

let test_ftext_roundtrip () =
  List.iter
    (fun m ->
      match Quant.Ftext.of_string (Quant.Ftext.to_string m) with
      | Error e -> Alcotest.failf "float model round-trip failed: %s" e
      | Ok m' ->
          (* Bit-exact float payloads: inference agrees exactly. *)
          let x = Quant.Ftensor.random (Util.Rng.create 9) m.Quant.Fmodel.f_input_shape in
          let a = Quant.Fmodel.infer m x and b = Quant.Fmodel.infer m' x in
          let db = Quant.Ftensor.sqnr_db ~reference:a b in
          if db <> infinity then Alcotest.failf "payload not bit-exact (%.1f dB)" db)
    [ Quant.Fmodel.random_cnn (); Quant.Fmodel.random_mlp () ]

let test_ftext_diagnostics () =
  (match Quant.Ftext.of_string "nope" with
  | Error e -> Alcotest.(check bool) "header" true (Helpers.contains e "header")
  | Ok _ -> Alcotest.fail "bad header accepted");
  match Quant.Ftext.of_string "htvm-fmodel v1\ninput 4\nwarp 9\n" with
  | Error e -> Alcotest.(check bool) "unknown layer" true (Helpers.contains e "unknown layer")
  | Ok _ -> Alcotest.fail "unknown layer accepted"

let suites =
  [ ( "quant",
      [ Alcotest.test_case "ftensor basics" `Quick test_ftensor_basics;
        Alcotest.test_case "sqnr" `Quick test_sqnr;
        Alcotest.test_case "fmodel shapes" `Quick test_fmodel_infer_shapes;
        Alcotest.test_case "fmodel relu" `Quick test_fmodel_relu_applied;
        Alcotest.test_case "quantized graph matchable" `Quick
          test_quantized_graph_is_valid_and_matchable;
        Alcotest.test_case "int8 cnn accuracy" `Quick test_int8_cnn_accuracy;
        Alcotest.test_case "int8 mlp accuracy" `Quick test_int8_mlp_accuracy;
        Alcotest.test_case "ternary cnn accuracy" `Quick test_ternary_cnn_accuracy;
        Alcotest.test_case "pow2 scales" `Quick test_meta_scales_power_of_two;
        Alcotest.test_case "empty calibration" `Quick test_empty_calibration_rejected;
        Alcotest.test_case "zero calibration" `Quick test_zero_calibration_rejected;
        Alcotest.test_case "float->PTQ->DIANA end to end" `Quick
          test_quantized_model_deploys_end_to_end;
        Alcotest.test_case "ftext roundtrip" `Quick test_ftext_roundtrip;
        Alcotest.test_case "ftext diagnostics" `Quick test_ftext_diagnostics;
        prop_quantizer_monotone_requants;
      ] )
  ]
