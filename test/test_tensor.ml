(* Tests for lib/tensor: dtype ranges, indexing, validation, packing. *)

module Dtype = Tensor.Dtype

let test_dtype_ranges () =
  Alcotest.(check int) "i8 min" (-128) (Dtype.min_value Dtype.I8);
  Alcotest.(check int) "i8 max" 127 (Dtype.max_value Dtype.I8);
  Alcotest.(check int) "u7 min" 0 (Dtype.min_value Dtype.U7);
  Alcotest.(check int) "u7 max" 127 (Dtype.max_value Dtype.U7);
  Alcotest.(check int) "ternary min" (-1) (Dtype.min_value Dtype.Ternary);
  Alcotest.(check bool) "i32 holds big" true (Dtype.in_range Dtype.I32 2_000_000_000);
  Alcotest.(check bool) "i8 rejects 200" false (Dtype.in_range Dtype.I8 200)

let test_dtype_clamp () =
  Alcotest.(check int) "i8 clamp" 127 (Dtype.clamp Dtype.I8 3000);
  Alcotest.(check int) "ternary clamp +" 1 (Dtype.clamp Dtype.Ternary 57);
  Alcotest.(check int) "ternary clamp -" (-1) (Dtype.clamp Dtype.Ternary (-3));
  Alcotest.(check int) "ternary clamp 0" 0 (Dtype.clamp Dtype.Ternary 0)

let test_dtype_sizes () =
  Alcotest.(check int) "i8 sim byte" 1 (Dtype.sim_bytes Dtype.I8);
  Alcotest.(check int) "i32 sim bytes" 4 (Dtype.sim_bytes Dtype.I32);
  Alcotest.(check int) "ternary packs 2 bits" 2 (Dtype.packed_bits Dtype.Ternary)

let test_create_and_index () =
  let t = Tensor.create Dtype.I8 [| 2; 3; 4 |] in
  Alcotest.(check int) "numel" 24 (Tensor.numel t);
  Alcotest.(check int) "rank" 3 (Tensor.rank t);
  Tensor.set t [| 1; 2; 3 |] (-5);
  Alcotest.(check int) "roundtrip" (-5) (Tensor.get t [| 1; 2; 3 |]);
  (* Row-major: [1;2;3] = 1*12 + 2*4 + 3 = 23. *)
  Alcotest.(check int) "row-major flat" (-5) (Tensor.get_flat t 23)

let test_bounds_checked () =
  let t = Tensor.create Dtype.I8 [| 2; 2 |] in
  Alcotest.check_raises "oob index" (Invalid_argument "Tensor: index out of bounds")
    (fun () -> ignore (Tensor.get t [| 0; 2 |]));
  Alcotest.check_raises "rank mismatch" (Invalid_argument "Tensor: index rank mismatch")
    (fun () -> ignore (Tensor.get t [| 0 |]));
  Alcotest.check_raises "range violation"
    (Invalid_argument "Tensor: value 300 out of range for i8") (fun () ->
      Tensor.set t [| 0; 0 |] 300)

let test_of_array_validation () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Tensor.of_array: data length does not match shape") (fun () ->
      ignore (Tensor.of_array Dtype.I8 [| 2; 2 |] [| 1; 2; 3 |]));
  Alcotest.check_raises "range check"
    (Invalid_argument "Tensor: value 999 out of range for i8") (fun () ->
      ignore (Tensor.of_array Dtype.I8 [| 2 |] [| 1; 999 |]))

let test_nonpositive_dims_rejected () =
  Alcotest.check_raises "zero dim" (Invalid_argument "Tensor: dimensions must be positive")
    (fun () -> ignore (Tensor.create Dtype.I8 [| 2; 0 |]))

let test_scalar () =
  let s = Tensor.scalar Dtype.I32 12345 in
  Alcotest.(check int) "rank 0" 0 (Tensor.rank s);
  Alcotest.(check int) "numel 1" 1 (Tensor.numel s);
  Alcotest.(check int) "value" 12345 (Tensor.get s [||])

let test_reshape () =
  let t = Tensor.of_array Dtype.I8 [| 2; 3 |] [| 1; 2; 3; 4; 5; 6 |] in
  let r = Tensor.reshape t [| 3; 2 |] in
  Alcotest.(check int) "data preserved" 4 (Tensor.get r [| 1; 1 |]);
  Alcotest.check_raises "bad reshape"
    (Invalid_argument "Tensor.reshape: element count mismatch") (fun () ->
      ignore (Tensor.reshape t [| 5 |]))

let test_reshape_shares_storage () =
  let t = Tensor.create Dtype.I8 [| 4 |] in
  let r = Tensor.reshape t [| 2; 2 |] in
  Tensor.set t [| 0 |] 9;
  Alcotest.(check int) "view sees write" 9 (Tensor.get r [| 0; 0 |])

let test_cast_saturates () =
  let t = Tensor.of_array Dtype.I32 [| 3 |] [| -500; 12; 500 |] in
  let c = Tensor.cast Dtype.I8 t in
  Alcotest.(check (list int)) "saturated" [ -128; 12; 127 ]
    (Array.to_list (Tensor.unsafe_data c))

let test_fill_and_map () =
  let t = Tensor.create Dtype.I8 [| 3 |] in
  Tensor.fill t 7;
  let m = Tensor.map (fun v -> v * 2) t in
  Alcotest.(check (list int)) "mapped" [ 14; 14; 14 ] (Array.to_list (Tensor.unsafe_data m));
  Alcotest.check_raises "fill range-checks"
    (Invalid_argument "Tensor: value 200 out of range for i8") (fun () ->
      Tensor.fill (Tensor.create Dtype.I8 [| 1 |]) 200)

let test_map2_shape_mismatch () =
  let a = Tensor.create Dtype.I8 [| 2 |] and b = Tensor.create Dtype.I8 [| 3 |] in
  Alcotest.check_raises "mismatch" (Invalid_argument "Tensor.map2: shape mismatch")
    (fun () -> ignore (Tensor.map2 Dtype.I32 ( + ) a b))

let test_packed_bytes () =
  let w8 = Tensor.create Dtype.I8 [| 10; 10 |] in
  Alcotest.(check int) "i8 1B/elt" 100 (Tensor.packed_bytes w8);
  let wt = Tensor.create Dtype.Ternary [| 10; 10 |] in
  (* 100 elements * 2 bits = 200 bits = 25 bytes. *)
  Alcotest.(check int) "ternary packs" 25 (Tensor.packed_bytes wt);
  let w3 = Tensor.create Dtype.Ternary [| 3 |] in
  Alcotest.(check int) "rounds up" 1 (Tensor.packed_bytes w3)

let test_equal () =
  let a = Tensor.of_array Dtype.I8 [| 2 |] [| 1; 2 |] in
  let b = Tensor.of_array Dtype.I8 [| 2 |] [| 1; 2 |] in
  let c = Tensor.of_array Dtype.I8 [| 2 |] [| 1; 3 |] in
  Alcotest.(check bool) "equal" true (Tensor.equal a b);
  Alcotest.(check bool) "not equal" false (Tensor.equal a c);
  let d = Tensor.of_array Dtype.I32 [| 2 |] [| 1; 2 |] in
  Alcotest.(check bool) "dtype matters" false (Tensor.equal a d)

let test_max_abs_diff () =
  let a = Tensor.of_array Dtype.I32 [| 3 |] [| 0; 10; -5 |] in
  let b = Tensor.of_array Dtype.I32 [| 3 |] [| 1; 4; -5 |] in
  Alcotest.(check int) "diff" 6 (Tensor.max_abs_diff a b)

(* Flat accessors are the execution plan's hot path: bounds stay checked
   (OCaml array semantics) and set_flat still range-checks the value. *)
let test_flat_bounds () =
  let t = Tensor.create Dtype.I8 [| 2; 3 |] in
  let expect_oob name f =
    match f () with
    | _ -> Alcotest.failf "%s out of bounds accepted" name
    | exception Invalid_argument _ -> ()
  in
  expect_oob "get_flat past end" (fun () -> Tensor.get_flat t 6);
  expect_oob "get_flat negative" (fun () -> Tensor.get_flat t (-1));
  expect_oob "set_flat past end" (fun () -> Tensor.set_flat t 6 0);
  expect_oob "set_flat negative" (fun () -> Tensor.set_flat t (-1) 0);
  Alcotest.check_raises "set_flat range-checks the value"
    (Invalid_argument "Tensor: value 300 out of range for i8") (fun () ->
      Tensor.set_flat t 0 300);
  Tensor.set_flat t 5 (-7);
  Alcotest.(check int) "last element round-trips" (-7) (Tensor.get_flat t 5)

(* Every dtype round-trips its extremes through the flat accessors and
   through Mem's bulk flat codecs (the plan's decode/encode primitives),
   which must agree with the per-tensor codec. *)
let test_dtype_flat_roundtrips () =
  List.iter
    (fun dtype ->
      let name = Dtype.to_string dtype in
      let lo = Dtype.min_value dtype and hi = Dtype.max_value dtype in
      let t = Tensor.create dtype [| 4 |] in
      List.iteri
        (fun i v ->
          Tensor.set_flat t i v;
          Alcotest.(check int) (name ^ " flat round-trip") v (Tensor.get_flat t i))
        [ lo; hi; 0; Dtype.clamp dtype 1 ];
      (* Mem codecs: write_tensor / read_flat_into and write_flat_from /
         read_tensor are inverses, at a non-zero offset. *)
      let src = Tensor.random (Util.Rng.create 17) dtype [| 3; 5 |] in
      let mem = Sim.Mem.create "scratch" 256 in
      Sim.Mem.write_tensor mem 32 src;
      let dst = Array.make (Tensor.numel src + 2) 0 in
      Sim.Mem.read_flat_into mem dtype 32 dst ~pos:2 ~len:(Tensor.numel src);
      Array.iteri
        (fun i v ->
          Alcotest.(check int)
            (Printf.sprintf "%s bulk decode [%d]" name i)
            v
            dst.(i + 2))
        (Tensor.unsafe_data src);
      let mem2 = Sim.Mem.create "scratch2" 256 in
      Sim.Mem.write_flat_from mem2 dtype 32 dst ~pos:2 ~len:(Tensor.numel src);
      Alcotest.(check bool) (name ^ " bulk encode") true
        (Tensor.equal src (Sim.Mem.read_tensor mem2 32 dtype (Tensor.shape src))))
    [ Dtype.I8; Dtype.U7; Dtype.I16; Dtype.I32; Dtype.Ternary ]

let prop_random_in_range dtype =
  Helpers.qtest
    (Printf.sprintf "random %s in range" (Dtype.to_string dtype))
    QCheck.int
    (fun seed ->
      let t = Tensor.random (Util.Rng.create seed) dtype [| 4; 4 |] in
      Tensor.fold (fun ok v -> ok && Dtype.in_range dtype v) true t)

let prop_reshape_roundtrip =
  Helpers.qtest "reshape roundtrip preserves payload" (Helpers.arbitrary_chw Dtype.I8)
    (fun t ->
      let flat = Tensor.reshape t [| Tensor.numel t |] in
      let back = Tensor.reshape flat (Tensor.shape t) in
      Tensor.equal t back)

let prop_cast_identity_when_in_range =
  Helpers.qtest "i8 -> i32 -> i8 identity" (Helpers.arbitrary_chw Dtype.I8)
    (fun t -> Tensor.equal t (Tensor.cast Dtype.I8 (Tensor.cast Dtype.I32 t)))

let suites =
  [ ( "tensor",
      [ Alcotest.test_case "dtype ranges" `Quick test_dtype_ranges;
        Alcotest.test_case "dtype clamp" `Quick test_dtype_clamp;
        Alcotest.test_case "dtype sizes" `Quick test_dtype_sizes;
        Alcotest.test_case "create/index" `Quick test_create_and_index;
        Alcotest.test_case "bounds checked" `Quick test_bounds_checked;
        Alcotest.test_case "of_array validation" `Quick test_of_array_validation;
        Alcotest.test_case "nonpositive dims" `Quick test_nonpositive_dims_rejected;
        Alcotest.test_case "scalar" `Quick test_scalar;
        Alcotest.test_case "reshape" `Quick test_reshape;
        Alcotest.test_case "reshape shares storage" `Quick test_reshape_shares_storage;
        Alcotest.test_case "cast saturates" `Quick test_cast_saturates;
        Alcotest.test_case "fill/map" `Quick test_fill_and_map;
        Alcotest.test_case "map2 mismatch" `Quick test_map2_shape_mismatch;
        Alcotest.test_case "packed bytes" `Quick test_packed_bytes;
        Alcotest.test_case "equal" `Quick test_equal;
        Alcotest.test_case "max_abs_diff" `Quick test_max_abs_diff;
        Alcotest.test_case "flat accessor bounds" `Quick test_flat_bounds;
        Alcotest.test_case "dtype flat round-trips" `Quick
          test_dtype_flat_roundtrips;
        prop_random_in_range Dtype.I8;
        prop_random_in_range Dtype.Ternary;
        prop_random_in_range Dtype.U7;
        prop_reshape_roundtrip;
        prop_cast_identity_when_in_range;
      ] )
  ]
