(* Unit tests for the host codegen library: the binary-size accounting
   (Codegen.Size) — section arithmetic, per-layer driver/tile-loop code
   costs, and the analog macro's zero-padding rule for ternary spatial
   convolutions — and one fusion rule of Codegen.Fuse. *)

module Size = Codegen.Size

let size_model =
  {
    Arch.Platform.runtime_base_bytes = 1000;
    cpu_kernel_bytes = 100;
    cpu_op_bytes = 10;
    accel_call_bytes = 40;
    accel_tile_loop_bytes = 25;
  }

let conv_layer ?(f = 3) ~wdtype ~k ~c () =
  {
    Ir.Layer.kind = Ir.Layer.Conv { Nn.Kernels.conv_default with padding = (f / 2, f / 2) };
    fused_pool = None;
    weights = Some (Tensor.create wdtype [| k; c; f; f |]);
    bias = Some (Tensor.create Tensor.Dtype.I32 [| k |]);
    shift = Some 6;
    relu = true;
    in_shape = [| c; 8; 8 |];
    in2_shape = None;
    out_shape = [| k; 8; 8 |];
    in_dtype = Tensor.Dtype.I8;
    out_dtype = Tensor.Dtype.I8;
  }

(* One layer's deployed weight + bias bytes: the accelerator-constants
   section of a report holding that layer alone. *)
let accel_const_bytes l ~accel_name =
  let r =
    Size.report ~size_model ~cpu_kernels:[] ~accel_layers:[ (l, accel_name, false) ]
      ~cpu_const_bytes:0
  in
  (List.find
     (fun (s : Size.section) -> s.Size.section_name = "accelerator constants")
     r.Size.sections)
    .Size.bytes

let cpu_kernel name bytes =
  { Codegen.Fuse.kernel_name = name; nodes = []; cycles = 1; code_bytes = bytes }

let test_sections_sum_to_total () =
  let l = conv_layer ~wdtype:Tensor.Dtype.I8 ~k:4 ~c:3 () in
  let r =
    Size.report ~size_model
      ~cpu_kernels:[ cpu_kernel "k0" 120; cpu_kernel "k1" 130 ]
      ~accel_layers:[ (l, "diana_digital", true); (l, "diana_digital", false) ]
      ~cpu_const_bytes:77
  in
  let sum = List.fold_left (fun a (s : Size.section) -> a + s.Size.bytes) 0 r.Size.sections in
  Alcotest.(check int) "total is the section sum" sum r.Size.total_bytes;
  let sec name =
    (List.find (fun (s : Size.section) -> s.Size.section_name = name) r.Size.sections)
      .Size.bytes
  in
  Alcotest.(check int) "runtime base" 1000 (sec "runtime");
  Alcotest.(check int) "cpu kernel code" 250 (sec "cpu kernels");
  (* one tiled layer (call + loop) + one untiled (call only) *)
  Alcotest.(check int) "accel driver code" ((40 + 25) + 40) (sec "accelerator drivers");
  Alcotest.(check int) "cpu constants" 77 (sec "cpu constants")

let test_int8_consts_pack_tight () =
  let l = conv_layer ~wdtype:Tensor.Dtype.I8 ~k:4 ~c:3 () in
  let expected =
    Tensor.packed_bytes (Option.get l.Ir.Layer.weights)
    + Tensor.packed_bytes (Option.get l.Ir.Layer.bias)
  in
  Alcotest.(check int) "int8 conv consts"
    expected
    (accel_const_bytes l ~accel_name:"diana_digital")

let test_ternary_spatial_pads_to_macro () =
  (* A 3x3 ternary conv on the analog array stores each output channel as
     a full macro column: ceil(imc_rows * 2 bits / 8) bytes per channel,
     regardless of how few rows c*3*3 actually uses. *)
  let k = 8 in
  let l = conv_layer ~wdtype:Tensor.Dtype.Ternary ~k ~c:3 () in
  let bias = Tensor.packed_bytes (Option.get l.Ir.Layer.bias) in
  let col = Util.Ints.ceil_div (Arch.Diana.imc_rows * 2) 8 in
  Alcotest.(check int) "padded to macro height"
    ((col * k) + bias)
    (accel_const_bytes l ~accel_name:"diana_analog");
  (* The same tensor deployed anywhere else packs tight. *)
  Alcotest.(check int) "tight elsewhere"
    (Tensor.packed_bytes (Option.get l.Ir.Layer.weights) + bias)
    (accel_const_bytes l ~accel_name:"diana_digital")

let test_ternary_1x1_packs_tight () =
  (* FC-like (1x1) ternary layers pack tight even on the analog array. *)
  let l = conv_layer ~f:1 ~wdtype:Tensor.Dtype.Ternary ~k:8 ~c:16 () in
  let expected =
    Tensor.packed_bytes (Option.get l.Ir.Layer.weights)
    + Tensor.packed_bytes (Option.get l.Ir.Layer.bias)
  in
  Alcotest.(check int) "1x1 ternary consts"
    expected
    (accel_const_bytes l ~accel_name:"diana_analog")

let test_biasless_layer () =
  let l = { (conv_layer ~wdtype:Tensor.Dtype.I8 ~k:4 ~c:3 ()) with Ir.Layer.bias = None } in
  Alcotest.(check int) "no bias section"
    (Tensor.packed_bytes (Option.get l.Ir.Layer.weights))
    (accel_const_bytes l ~accel_name:"diana_digital")

(* A host relu read twice by one add has that add as its only consumer,
   so the two fuse into one kernel. *)
let test_fuse_double_reader () =
  let module B = Ir.Graph.Builder in
  let b = B.create () in
  let x = B.input b ~name:"x" Tensor.Dtype.I8 [| 4 |] in
  let r = B.relu b x in
  let s = B.add b r r in
  let g = B.finish b ~output:s in
  let kernels =
    Codegen.Fuse.kernels ~cpu:Arch.Diana.cpu
      ~size:Arch.Diana.platform.Arch.Platform.size_model g (Ir.Infer.infer g)
      ~host_nodes:[ r; s ]
  in
  Alcotest.(check (list (pair string (list int))))
    "one kernel: relu then add"
    [ ("cpu_0_relu_fused1", [ r; s ]) ]
    (List.map (fun k -> (k.Codegen.Fuse.kernel_name, k.Codegen.Fuse.nodes)) kernels)

let suites =
  [ ( "size",
      [ Alcotest.test_case "sections sum to total" `Quick test_sections_sum_to_total;
        Alcotest.test_case "int8 consts pack tight" `Quick test_int8_consts_pack_tight;
        Alcotest.test_case "ternary spatial pads to macro" `Quick
          test_ternary_spatial_pads_to_macro;
        Alcotest.test_case "ternary 1x1 packs tight" `Quick test_ternary_1x1_packs_tight;
        Alcotest.test_case "biasless layer" `Quick test_biasless_layer;
        Alcotest.test_case "fuse double reader" `Quick test_fuse_double_reader;
      ] )
  ]
