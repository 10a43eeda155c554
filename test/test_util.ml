(* Tests for lib/util: PRNG determinism, integer helpers, table layout. *)

let test_rng_deterministic () =
  let a = Util.Rng.create 42 and b = Util.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Util.Rng.next_int64 a) (Util.Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Util.Rng.create 1 and b = Util.Rng.create 2 in
  Alcotest.(check bool) "different seeds diverge"
    true
    (Util.Rng.next_int64 a <> Util.Rng.next_int64 b)

let test_rng_split_independent () =
  let a = Util.Rng.create 7 in
  let b = Util.Rng.split a in
  let xs = List.init 10 (fun _ -> Util.Rng.next_int64 a) in
  let ys = List.init 10 (fun _ -> Util.Rng.next_int64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_rng_bounds () =
  let r = Util.Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Util.Rng.int r 17 in
    Alcotest.(check bool) "int in bound" true (v >= 0 && v < 17);
    let w = Util.Rng.int_in r (-5) 9 in
    Alcotest.(check bool) "int_in in range" true (w >= -5 && w <= 9);
    let t = Util.Rng.ternary r in
    Alcotest.(check bool) "ternary in {-1,0,1}" true (t >= -1 && t <= 1);
    let i8 = Util.Rng.int8 r in
    Alcotest.(check bool) "int8 range" true (i8 >= -128 && i8 <= 127)
  done

let test_rng_ternary_distribution () =
  let r = Util.Rng.create 11 in
  let zeros = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Util.Rng.ternary r = 0 then incr zeros
  done;
  (* Zero is drawn with probability 1/2: allow a generous band. *)
  Alcotest.(check bool) "about half zeros" true (!zeros > n * 4 / 10 && !zeros < n * 6 / 10)

let test_ceil_div () =
  Alcotest.(check int) "7/2" 4 (Util.Ints.ceil_div 7 2);
  Alcotest.(check int) "8/2" 4 (Util.Ints.ceil_div 8 2);
  Alcotest.(check int) "0/5" 0 (Util.Ints.ceil_div 0 5);
  Alcotest.(check int) "1/5" 1 (Util.Ints.ceil_div 1 5)

let test_round_up () =
  Alcotest.(check int) "13 to 16" 16 (Util.Ints.round_up 13 16);
  Alcotest.(check int) "16 to 16" 16 (Util.Ints.round_up 16 16);
  Alcotest.(check int) "0 to 16" 0 (Util.Ints.round_up 0 16)

let expect_assert name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Assert_failure" name
  | exception Assert_failure _ -> ()

let test_ceil_div_round_up_boundaries () =
  (* Exact boundaries around zero: the smallest legal numerator. *)
  Alcotest.(check int) "0/1" 0 (Util.Ints.ceil_div 0 1);
  Alcotest.(check int) "0 up to 1" 0 (Util.Ints.round_up 0 1);
  Alcotest.(check int) "1/1" 1 (Util.Ints.ceil_div 1 1);
  Alcotest.(check int) "1 up to 8" 8 (Util.Ints.round_up 1 8);
  (* Negative numerators used to truncate toward zero silently
     (ceil_div (-1) 4 was 0, round_up (-3) 8 was 0); now asserted. *)
  expect_assert "ceil_div -1 4" (fun () -> Util.Ints.ceil_div (-1) 4);
  expect_assert "ceil_div min_int" (fun () -> Util.Ints.ceil_div min_int 4);
  expect_assert "round_up -3 8" (fun () -> Util.Ints.round_up (-3) 8);
  expect_assert "ceil_div by 0" (fun () -> Util.Ints.ceil_div 4 0);
  expect_assert "ceil_div by -2" (fun () -> Util.Ints.ceil_div 4 (-2))

let test_clamp () =
  Alcotest.(check int) "below" (-3) (Util.Ints.clamp ~lo:(-3) ~hi:9 (-100));
  Alcotest.(check int) "above" 9 (Util.Ints.clamp ~lo:(-3) ~hi:9 100);
  Alcotest.(check int) "inside" 4 (Util.Ints.clamp ~lo:(-3) ~hi:9 4)

let test_pow2_log2 () =
  Alcotest.(check int) "log2 1" 0 (Util.Ints.log2_ceil 1);
  Alcotest.(check int) "log2 9" 4 (Util.Ints.log2_ceil 9)

let test_divisors () =
  Alcotest.(check (list int)) "12" [ 1; 2; 3; 4; 6; 12 ] (Util.Ints.divisors 12);
  Alcotest.(check (list int)) "1" [ 1 ] (Util.Ints.divisors 1);
  Alcotest.(check (list int)) "7" [ 1; 7 ] (Util.Ints.divisors 7)

let test_divisors_edge_cases () =
  (* perfect squares: the root appears exactly once *)
  Alcotest.(check (list int)) "36" [ 1; 2; 3; 4; 6; 9; 12; 18; 36 ]
    (Util.Ints.divisors 36);
  Alcotest.(check (list int)) "49" [ 1; 7; 49 ] (Util.Ints.divisors 49);
  Alcotest.(check (list int)) "4" [ 1; 2; 4 ] (Util.Ints.divisors 4);
  (* primes: exactly the two trivial divisors, even for large inputs the
     O(sqrt n) scan must terminate quickly on *)
  Alcotest.(check (list int)) "9973" [ 1; 9973 ] (Util.Ints.divisors 9973);
  Alcotest.(check (list int)) "big prime" [ 1; 104729 ] (Util.Ints.divisors 104729)

let prop_divisors_complete_sorted =
  Helpers.qtest "divisors = sorted naive scan" QCheck.(int_range 1 2000) (fun n ->
      let naive = List.filter (fun d -> n mod d = 0) (List.init n (fun i -> i + 1)) in
      Util.Ints.divisors n = naive)

let test_kib () = Alcotest.(check int) "256 KiB" 262144 (Util.Ints.kib 256)

let test_table_render () =
  let s =
    Util.Table.render
      ~align:[ Util.Table.Left; Util.Table.Right ]
      ~header:[ "name"; "cycles" ]
      [ [ "conv1"; "120" ]; [ "fc"; "8" ] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines + trailing" 5 (List.length lines);
  (* All non-empty lines share the same width (padded columns). *)
  let widths = List.filter_map (fun l -> if l = "" then None else Some (String.length l)) lines in
  List.iter (fun w -> Alcotest.(check int) "aligned" (List.hd widths) w) widths

let test_table_right_alignment () =
  let s =
    Util.Table.render ~align:[ Util.Table.Right ] ~header:[ "n" ] [ [ "7" ]; [ "1234" ] ]
  in
  (match String.split_on_char '\n' s with
  | _header :: _rule :: short :: long :: _ ->
      Alcotest.(check int) "padded to width" (String.length long) (String.length short);
      Alcotest.(check bool) "right aligned" true (short.[0] = ' ')
  | _ -> Alcotest.fail "unexpected table shape");
  ()

let test_table_markdown () =
  let s = Util.Table.render_markdown ~header:[ "a"; "b" ] [ [ "1" ] ] in
  Alcotest.(check bool) "has rule" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "|---|---|"));
  Alcotest.(check bool) "pads short row" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "| 1 |  |"))

let prop_ceil_div_round_up =
  Helpers.qtest "round_up = ceil_div * b"
    QCheck.(pair (int_range 0 10000) (int_range 1 64))
    (fun (a, b) -> Util.Ints.round_up a b = Util.Ints.ceil_div a b * b)

let prop_divisors_divide =
  Helpers.qtest "divisors all divide" QCheck.(int_range 1 500)
    (fun n -> List.for_all (fun d -> n mod d = 0) (Util.Ints.divisors n))

let prop_clamp_in_range =
  Helpers.qtest "clamp lands inside" QCheck.(triple int (int_range (-100) 0) (int_range 1 100))
    (fun (v, lo, hi) ->
      let r = Util.Ints.clamp ~lo ~hi v in
      r >= lo && r <= hi)

(* --- Util.Key: injective field encoding --- *)

let test_key_roundtrip () =
  let cases =
    [
      [];
      [ "" ];
      [ ""; "" ];
      [ "a" ];
      [ "a"; "b" ];
      [ "a:b"; "3:c" ];
      [ "12:"; ":" ];
      [ "\x00\xff"; "5" ];
      [ String.make 300 'x'; "" ];
    ]
  in
  List.iter
    (fun fields ->
      match Util.Key.decode (Util.Key.encode fields) with
      | Some got ->
          Alcotest.(check (list string)) "decode (encode l) = l" fields got
      | None -> Alcotest.fail "decode failed on a well-formed encoding")
    cases

let test_key_rejects_malformed () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ String.escaped s) true
        (Util.Key.decode s = None))
    [ "x"; "1"; "2:a"; "1:ab"; ":a"; "01x"; "1:a2"; "-1:" ]

let prop_key_injective =
  let field = QCheck.Gen.(string_size ~gen:printable (int_bound 6)) in
  let fields = QCheck.Gen.(list_size (int_bound 4) field) in
  Helpers.qtest "Key.encode is injective"
    (QCheck.make QCheck.Gen.(pair fields fields))
    (fun (a, b) ->
      if a = b then Util.Key.encode a = Util.Key.encode b
      else Util.Key.encode a <> Util.Key.encode b)

(* --- Util.File: atomic writes --- *)

let in_temp_dir f =
  let dir = Filename.temp_file "htvm-test-file" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_atomic_write_roundtrip () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "out.txt" in
      Util.File.write_atomic path "first";
      Alcotest.(check string) "written" "first"
        (In_channel.with_open_bin path In_channel.input_all);
      Util.File.write_atomic path "second, longer";
      Alcotest.(check string) "replaced" "second, longer"
        (In_channel.with_open_bin path In_channel.input_all);
      Alcotest.(check (list string)) "no temp litter" [ "out.txt" ]
        (Array.to_list (Sys.readdir dir)))

exception Boom

let test_atomic_write_aborts_cleanly () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "out.txt" in
      Util.File.write_atomic path "intact";
      (* A writer that dies mid-stream must leave the old contents
         visible and no temp file behind. *)
      (match
         Util.File.with_atomic_out path (fun oc ->
             output_string oc "partial garbage";
             raise Boom)
       with
      | () -> Alcotest.fail "expected the writer exception to propagate"
      | exception Boom -> ());
      Alcotest.(check string) "old contents intact" "intact"
        (In_channel.with_open_bin path In_channel.input_all);
      Alcotest.(check (list string)) "no temp litter" [ "out.txt" ]
        (Array.to_list (Sys.readdir dir)))

(* Kill a forked writer with SIGKILL while it is blocked mid-write —
   after it has written payload bytes into its temp file but before the
   rename — and assert the destination never becomes visible. The child
   signals readiness through a pipe so the parent never kills too
   early. *)
let test_atomic_write_survives_kill () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "out.txt" in
      let r, w = Unix.pipe () in
      match Unix.fork () with
      | 0 ->
          Unix.close r;
          (try
             Util.File.with_atomic_out path (fun oc ->
                 output_string oc (String.make 4096 'x');
                 flush oc;
                 ignore (Unix.write w (Bytes.of_string "!") 0 1);
                 (* Block until killed; the rename is never reached. *)
                 Unix.sleep 600)
           with _ -> ());
          Unix._exit 0
      | pid ->
          Unix.close w;
          ignore (Unix.read r (Bytes.create 1) 0 1);
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          Unix.close r;
          Alcotest.(check bool) "no partial file visible" false
            (Sys.file_exists path))

let suites =
  [ ( "util",
      [ Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
        Alcotest.test_case "rng ternary distribution" `Quick test_rng_ternary_distribution;
        Alcotest.test_case "ceil_div" `Quick test_ceil_div;
        Alcotest.test_case "round_up" `Quick test_round_up;
        Alcotest.test_case "ceil_div/round_up boundaries" `Quick
          test_ceil_div_round_up_boundaries;
        Alcotest.test_case "clamp" `Quick test_clamp;
        Alcotest.test_case "pow2/log2" `Quick test_pow2_log2;
        Alcotest.test_case "divisors" `Quick test_divisors;
        Alcotest.test_case "divisors edge cases" `Quick test_divisors_edge_cases;
        Alcotest.test_case "kib" `Quick test_kib;
        Alcotest.test_case "table render" `Quick test_table_render;
        Alcotest.test_case "table right align" `Quick test_table_right_alignment;
        Alcotest.test_case "table markdown" `Quick test_table_markdown;
        prop_ceil_div_round_up;
        prop_divisors_divide;
        prop_divisors_complete_sorted;
        prop_clamp_in_range;
        Alcotest.test_case "key roundtrip" `Quick test_key_roundtrip;
        Alcotest.test_case "key rejects malformed" `Quick
          test_key_rejects_malformed;
        prop_key_injective;
        Alcotest.test_case "atomic write roundtrip" `Quick
          test_atomic_write_roundtrip;
        Alcotest.test_case "atomic write aborts cleanly" `Quick
          test_atomic_write_aborts_cleanly;
        Alcotest.test_case "atomic write survives kill" `Quick
          test_atomic_write_survives_kill;
      ] )
  ]
