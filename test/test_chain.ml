(* Tests for depth-first fused layer pairs: planning arithmetic, peak-L2
   accounting, and bit-exactness of the striped executor against the
   sequential two-layer reference. *)

module Dtype = Tensor.Dtype
module L = Ir.Layer
module T = Tiling_fixtures

(* A chained pair: conv1 c->k1 (3x3 pad1), conv2 k1->k2 (3x3 pad1, optional
   stride). *)
let pair ?(c = 4) ?(k1 = 8) ?(k2 = 8) ?(hw = 16) ?(stride2 = 1) ?(seed = 61) () =
  let first = T.conv_layer ~c ~k:k1 ~hw ~f:3 ~pad:1 ~seed () in
  let second =
    T.conv_layer ~c:k1 ~k:k2 ~hw ~f:3 ~pad:1 ~stride:stride2 ~seed:(seed + 1) ()
  in
  (first, second)

(* Lay out input / output / weight / bias regions for a fused pair in a
   fresh L2, returning the memories and buffer map. *)
let setup_chain plan (first : L.t) =
  let l2 = Sim.Mem.create "L2" (Util.Ints.kib 512) in
  let l1 = Sim.Mem.create "L1" (Util.Ints.kib 256) in
  Sim.Mem.fill l1 0x3C;
  let numel s = Array.fold_left ( * ) 1 s in
  let out_off = numel first.L.in_shape in
  let w1_off = out_off + numel plan.Dory.Chain.second.L.out_shape in
  Sim.Mem.write_tensor l2 w1_off (Option.get first.L.weights);
  let b1_off = w1_off + Tensor.sim_bytes (Option.get first.L.weights) in
  Sim.Mem.write_tensor l2 b1_off (Option.get first.L.bias);
  let w2_off = b1_off + Tensor.sim_bytes (Option.get first.L.bias) in
  Sim.Mem.write_tensor l2 w2_off (Option.get plan.Dory.Chain.second.L.weights);
  let b2_off = w2_off + Tensor.sim_bytes (Option.get plan.Dory.Chain.second.L.weights) in
  Sim.Mem.write_tensor l2 b2_off (Option.get plan.Dory.Chain.second.L.bias);
  let buffers =
    { Sim.Exec_chain.in_offset = 0; out_offset = out_off; w1_offset = w1_off;
      b1_offset = b1_off; w2_offset = w2_off; b2_offset = b2_off }
  in
  (l2, l1, buffers)

let run_chain plan (first : L.t) _second input =
  let l2, l1, buffers = setup_chain plan first in
  Sim.Mem.write_tensor l2 0 input;
  let counters =
    Sim.Exec_chain.run ~platform:Arch.Diana.platform ~accel:Arch.Diana.digital ~l2 ~l1
      ~buffers plan
  in
  let out =
    Sim.Mem.read_tensor l2 buffers.Sim.Exec_chain.out_offset
      plan.Dory.Chain.second.L.out_dtype plan.Dory.Chain.second.L.out_shape
  in
  (out, counters)

let check_exact ?stripe_budget (first, second) seed =
  let budget = Option.value stripe_budget ~default:(Util.Ints.kib 256) in
  match Dory.Chain.plan ~l1_budget:budget first second with
  | Error e -> Alcotest.failf "plan failed: %s" e
  | Ok plan ->
      let input = Tensor.random (Util.Rng.create seed) first.L.in_dtype first.L.in_shape in
      let reference = L.execute second (L.execute first input) in
      let out, counters = run_chain plan first second input in
      if not (Tensor.equal reference out) then
        Alcotest.failf "fused pair differs (stripe=%d, %d stripes): max diff %d"
          plan.Dory.Chain.stripe_rows plan.Dory.Chain.stripes
          (Tensor.max_abs_diff reference out);
      (plan, counters)

let test_compatible () =
  let plan = Dory.Chain.plan ~l1_budget:max_int in
  let first, second = pair () in
  (match plan first second with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "pair should chain: %s" e);
  let bad = T.conv_layer ~c:5 ~k:8 ~hw:16 () in
  (match plan first bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mismatched shapes accepted");
  match plan first (T.dense_layer ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dense accepted in a conv chain"

let test_plan_stripe_fits_budget () =
  let first, second = pair ~hw:32 () in
  let budget = Util.Ints.kib 8 in
  let plan = Result.get_ok (Dory.Chain.plan ~l1_budget:budget first second) in
  Alcotest.(check bool) "stripe fits" true (Dory.Chain.l1_stripe_bytes plan <= budget);
  Alcotest.(check bool) "striped" true (plan.Dory.Chain.stripes > 1)

let test_plan_rejects_tiny_budget () =
  let first, second = pair ~hw:32 () in
  match Dory.Chain.plan ~l1_budget:128 first second with
  | Error e -> Alcotest.(check bool) "diagnosed" true (Helpers.contains e "no stripe")
  | Ok _ -> Alcotest.fail "expected no feasible stripe"

let test_exact_single_stripe () = ignore (check_exact (pair ()) 1)

let test_exact_striped () =
  let plan, _ = check_exact ~stripe_budget:(Util.Ints.kib 4) (pair ()) 2 in
  Alcotest.(check bool) "multiple stripes" true (plan.Dory.Chain.stripes > 1)

let test_exact_strided_second_layer () =
  ignore (check_exact ~stripe_budget:(Util.Ints.kib 4) (pair ~stride2:2 ()) 3)

let test_l2_peak_reduction () =
  let first, second = pair ~c:4 ~k1:32 ~k2:4 ~hw:16 () in
  let plan = Result.get_ok (Dory.Chain.plan ~l1_budget:(Util.Ints.kib 16) first second) in
  (* The fat 32-channel intermediate disappears from L2. *)
  Alcotest.(check bool) "fused peak smaller" true
    (Dory.Chain.l2_peak_fused plan < Dory.Chain.l2_peak_sequential plan);
  Alcotest.(check int) "fused peak = in + out"
    ((4 * 16 * 16) + (4 * 16 * 16))
    (Dory.Chain.l2_peak_fused plan)

let test_recompute_factor () =
  let first, second = pair ~hw:16 () in
  (* Tall stripes: no halo recompute. *)
  let whole = Result.get_ok (Dory.Chain.plan ~l1_budget:(Util.Ints.kib 256) first second) in
  Alcotest.(check (float 1e-9)) "single stripe has no recompute" 1.0
    (Dory.Chain.recompute_factor whole);
  (* Narrow stripes recompute halo rows. *)
  let striped = Result.get_ok (Dory.Chain.plan ~l1_budget:(Util.Ints.kib 3) first second) in
  Alcotest.(check bool) "striped recomputes" true
    (Dory.Chain.recompute_factor striped > 1.0)

let prop_chain_exact =
  Helpers.qtest ~count:30 "fused pair exact over random geometry"
    QCheck.(quad (int_range 1 6) (int_range 1 10) (pair (int_range 1 10) (int_range 8 18)) int)
    (fun (c, k1, (k2, hw), seed) ->
      let first, second = pair ~c ~k1 ~k2 ~hw ~seed:(abs seed mod 1000) () in
      match Dory.Chain.plan ~l1_budget:(Util.Ints.kib 3) first second with
      | Error _ -> true
      | Ok plan ->
          let input =
            Tensor.random (Util.Rng.create seed) first.L.in_dtype first.L.in_shape
          in
          let reference = L.execute second (L.execute first input) in
          let out, _ = run_chain plan first second input in
          Tensor.equal reference out)

let suites =
  [ ( "depth-first-chain",
      [ Alcotest.test_case "compatible" `Quick test_compatible;
        Alcotest.test_case "plan fits budget" `Quick test_plan_stripe_fits_budget;
        Alcotest.test_case "plan rejects tiny budget" `Quick test_plan_rejects_tiny_budget;
        Alcotest.test_case "exact single stripe" `Quick test_exact_single_stripe;
        Alcotest.test_case "exact striped" `Quick test_exact_striped;
        Alcotest.test_case "exact strided second" `Quick test_exact_strided_second_layer;
        Alcotest.test_case "L2 peak reduction" `Quick test_l2_peak_reduction;
        Alcotest.test_case "recompute factor" `Quick test_recompute_factor;
        prop_chain_exact;
      ] )
  ]
