(* Tests for the extension subsystems: the NOVA portability target, the
   energy model and the Graphviz export. *)

module C = Htvm.Compile

let resnet () = (Models.Zoo.find "resnet8").Models.Zoo.build Models.Policy.All_int8

(* --- NOVA platform --- *)

let gemm16 = Arch.Platform.find_accel Arch.Nova.platform "nova_gemm16"

let test_nova_compiles_bit_exact () =
  let g = resnet () in
  let cfg = C.default_config Arch.Nova.platform in
  match C.compile cfg g with
  | Error e -> Alcotest.failf "nova compile failed: %s" (C.error_to_string e)
  | Ok artifact ->
      let inputs = Models.Zoo.random_input g in
      let out, _ = C.run artifact ~inputs in
      Helpers.check_tensor "exact on nova" (Ir.Eval.run g ~inputs) out

let test_nova_partial_offload () =
  let g = resnet () in
  let cfg = C.default_config Arch.Nova.platform in
  let artifact = Result.get_ok (C.compile cfg g) in
  let on_accel, on_cpu =
    List.partition
      (fun (li : C.layer_info) -> li.C.li_target = "nova_gemm16")
      artifact.C.layers
  in
  Alcotest.(check bool) "some offloaded" true (List.length on_accel > 0);
  (* The stride-2 convolutions must be among the CPU kernels (fused CPU
     kernels are named after their anchor operator). *)
  Alcotest.(check bool) "conv kernels on host" true
    (List.exists (fun (li : C.layer_info) -> Helpers.contains li.C.li_desc "conv2d") on_cpu);
  Alcotest.(check bool) "no strided conv on accel" true
    (List.for_all
       (fun (li : C.layer_info) -> not (Helpers.contains li.C.li_desc "s2x2"))
       on_accel)

let test_nova_rules () =
  let a = gemm16 in
  let fixtures = Tiling_fixtures.conv_layer in
  Alcotest.(check bool) "stride 1 ok" true (a.Arch.Accel.supports (fixtures ~stride:1 ()));
  Alcotest.(check bool) "stride 2 rejected" false
    (a.Arch.Accel.supports (fixtures ~stride:2 ()));
  Alcotest.(check bool) "5x5 rejected" false
    (a.Arch.Accel.supports (fixtures ~f:5 ~pad:2 ()));
  Alcotest.(check bool) "dw rejected" false
    (a.Arch.Accel.supports (Tiling_fixtures.dw_layer ()));
  Alcotest.(check bool) "add rejected" false
    (a.Arch.Accel.supports (Tiling_fixtures.add_layer ()))

let test_nova_weights_count_against_l1 () =
  (* No dedicated weight memory: a big dense layer's weight tile must be
     part of the L1 budget, forcing smaller k tiles than on DIANA. *)
  let layer = Tiling_fixtures.dense_layer ~c:640 ~k:128 () in
  let budget = Util.Ints.kib 16 in
  let cfg = Dory.Tiling.default_config ~l1_budget:budget in
  let sol = Result.get_ok (Dory.Tiling.solve cfg gemm16 layer) in
  let tile = sol.Dory.Tiling.tile in
  Alcotest.(check bool) "k tiled" true (tile.Arch.Tile.k < 128);
  (* A tiled layer double-buffers its activations. *)
  Alcotest.(check bool) "weights + activations fit" true
    ((2 * (Arch.Tile.bytes_in layer tile + Arch.Tile.bytes_out layer tile))
     + Arch.Tile.bytes_weights layer tile
    <= budget)

(* --- Energy --- *)

let energy_of platform policy =
  let g = (Models.Zoo.find "ds_cnn").Models.Zoo.build policy in
  let cfg = C.default_config platform in
  let artifact = Result.get_ok (C.compile cfg g) in
  let _, report = C.run artifact ~inputs:(Models.Zoo.random_input g) in
  Sim.Energy.of_report Sim.Energy.diana_defaults report

let test_energy_breakdown_sums () =
  let b = energy_of Arch.Diana.digital_only Models.Policy.All_int8 in
  let parts =
    b.Sim.Energy.cpu_uj +. b.Sim.Energy.accel_uj +. b.Sim.Energy.weight_load_uj
    +. b.Sim.Energy.dma_uj +. b.Sim.Energy.idle_uj
  in
  Alcotest.(check (float 1e-6)) "total = sum of parts" parts b.Sim.Energy.total_uj;
  Alcotest.(check bool) "positive" true (b.Sim.Energy.total_uj > 0.0)

let test_energy_accelerator_saves () =
  (* The paper's motivation: accelerated inference costs far less energy
     than running the same network on the host. *)
  let cpu = energy_of Arch.Diana.cpu_only Models.Policy.All_int8 in
  let dig = energy_of Arch.Diana.digital_only Models.Policy.All_int8 in
  Alcotest.(check bool) "digital saves >3x energy" true
    (cpu.Sim.Energy.total_uj > 3.0 *. dig.Sim.Energy.total_uj)

let test_energy_components_follow_dispatch () =
  let cpu = energy_of Arch.Diana.cpu_only Models.Policy.All_int8 in
  Alcotest.(check (float 1e-9)) "no accel energy on cpu-only" 0.0 cpu.Sim.Energy.accel_uj;
  let dig = energy_of Arch.Diana.digital_only Models.Policy.All_int8 in
  Alcotest.(check bool) "accel dominates digital config" true
    (dig.Sim.Energy.accel_uj > dig.Sim.Energy.cpu_uj)

(* --- Dot export --- *)

let test_dot_export () =
  let g = resnet () in
  let dot = Ir.Dot.to_dot g in
  List.iter
    (fun needle ->
      if not (Helpers.contains dot needle) then Alcotest.failf "dot lacks %s" needle)
    [ "digraph"; "nn.conv2d"; "doublecircle"; "->" ];
  (* One node statement per graph node. *)
  let count =
    List.length
      (List.filter (fun l -> Helpers.contains l "shape=")
         (String.split_on_char '\n' dot))
  in
  Alcotest.(check bool) "all nodes present" true (count > Ir.Graph.length g)

let test_dot_highlight () =
  let g = resnet () in
  let dot = Ir.Dot.to_dot ~highlight:(fun i -> if i = 3 then Some "lightblue" else None) g in
  Alcotest.(check bool) "highlight applied" true (Helpers.contains dot "lightblue")

let suites =
  [ ( "extensions",
      [ Alcotest.test_case "nova bit exact" `Quick test_nova_compiles_bit_exact;
        Alcotest.test_case "nova partial offload" `Quick test_nova_partial_offload;
        Alcotest.test_case "nova rules" `Quick test_nova_rules;
        Alcotest.test_case "nova weights in L1" `Quick test_nova_weights_count_against_l1;
        Alcotest.test_case "energy sums" `Quick test_energy_breakdown_sums;
        Alcotest.test_case "energy accelerator saves" `Quick test_energy_accelerator_saves;
        Alcotest.test_case "energy follows dispatch" `Quick
          test_energy_components_follow_dispatch;
        Alcotest.test_case "dot export" `Quick test_dot_export;
        Alcotest.test_case "dot highlight" `Quick test_dot_highlight;
      ] )
  ]
