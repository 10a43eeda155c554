(* Tests for lib/dory: the tiling solver, schedules, the L2 planner and
   the C emitter. Layer fixtures come from Test_arch. *)

module Tile = Arch.Tile
module T = Tiling_fixtures

let digital = Arch.Diana.digital
let analog = Arch.Diana.analog
let l1 = Util.Ints.kib 256

let cfg ?(budget = l1) ?(pe = true) ?(dma = true) ?(db = true) () =
  {
    Dory.Tiling.alpha = 1.0;
    use_pe_heuristics = pe;
    use_dma_heuristic = dma;
    double_buffer = db;
    l1_budget = budget;
  }

let solve_exn c accel layer =
  match Dory.Tiling.solve c accel layer with
  | Ok s -> s
  | Error e ->
      Alcotest.failf "expected a solution: %s" (Dory.Tiling.infeasible_to_string e)

let test_untiled_when_l1_large () =
  let layer = T.conv_layer ~c:16 ~k:16 ~hw:16 () in
  let s = solve_exn (cfg ()) digital layer in
  Alcotest.(check bool) "fits whole" false s.Dory.Tiling.tiled;
  Alcotest.(check int) "one tile" 1 s.Dory.Tiling.tile_count

let test_tiled_when_l1_small () =
  let layer = T.conv_layer ~c:16 ~k:32 ~hw:32 () in
  let budget = Util.Ints.kib 16 in
  let c = cfg ~budget () in
  let s = solve_exn c digital layer in
  Alcotest.(check bool) "tiled" true s.Dory.Tiling.tiled;
  (* A tiled layer double-buffers its activations. *)
  let t = s.Dory.Tiling.tile in
  Alcotest.(check bool) "respects budget" true
    (2 * (Arch.Tile.bytes_in layer t + Arch.Tile.bytes_out layer t) <= budget)

let test_no_feasible_tile () =
  (* Even a 1x1x1-output tile of this dense layer needs the whole input
     row in L1; make the budget absurdly small. *)
  let layer = T.dense_layer ~c:4096 ~k:8 () in
  match Dory.Tiling.solve (cfg ~budget:512 ()) digital layer with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected no feasible tile"

let test_heuristics_prefer_aligned_tiles () =
  (* Constrained budget on a 32x32 layer: with PE heuristics the solver
     should pick 16-aligned tiles, making the array at least as busy. *)
  let layer = T.conv_layer ~c:16 ~k:32 ~hw:32 () in
  let budget = Util.Ints.kib 12 in
  let s_on = solve_exn (cfg ~budget ()) digital layer in
  let s_off = solve_exn (cfg ~budget ~pe:false ~dma:false ()) digital layer in
  let busy (s : Dory.Tiling.solution) =
    digital.Arch.Accel.compute_cycles layer s.Dory.Tiling.tile
    * Tile.count layer s.Dory.Tiling.tile
  in
  Alcotest.(check bool) "heuristics never slower" true (busy s_on <= busy s_off)

let test_dense_weight_memory_tiling () =
  (* 128x640 i8 weights (81.9 kB) exceed the 64 kB weight SRAM: the tiler
     must split output neurons. *)
  let layer = T.dense_layer ~c:640 ~k:128 () in
  let s = solve_exn (cfg ()) digital layer in
  Alcotest.(check bool) "k tiled" true (s.Dory.Tiling.tile.Tile.k < 128);
  Alcotest.(check bool) "weight slice fits" true
    (Tile.bytes_weights layer s.Dory.Tiling.tile <= Util.Ints.kib 64)

let test_analog_k_capped_at_macro_columns () =
  let layer = T.conv_layer ~c:16 ~k:600 ~hw:8 ~wdtype:Tensor.Dtype.Ternary () in
  let s = solve_exn (cfg ()) analog layer in
  Alcotest.(check bool) "k <= 512" true (s.Dory.Tiling.tile.Tile.k <= 512)

let test_solver_keeps_input_channels_whole () =
  let layer = T.conv_layer ~c:48 ~k:16 ~hw:16 () in
  let s = solve_exn (cfg ~budget:(Util.Ints.kib 24) ()) digital layer in
  Alcotest.(check int) "c untiled" 48 s.Dory.Tiling.tile.Tile.c

let test_solver_matches_brute_force () =
  (* Exhaustively enumerate every tile of a small layer and check the
     solver's pick attains the maximum objective (validating the
     tallest-feasible-oy monotonicity argument in lib/dory/tiling.ml). *)
  let layer = T.conv_layer ~c:8 ~k:6 ~hw:7 ~f:3 ~pad:1 () in
  (* Budget below the full tile's 942 B working set, so the search runs
     (a feasible full tile always wins outright by design). *)
  let budget = 700 in
  let c = cfg ~budget () in
  let full = Tile.full layer in
  let best = ref neg_infinity in
  for k = 1 to full.Tile.k do
    for oy = 1 to full.Tile.oy do
      for ox = 1 to full.Tile.ox do
        let tile = Tile.for_layer layer ~c:8 ~k ~oy ~ox in
        if Dory.Tiling.feasible c digital layer tile then
          best := Float.max !best (Dory.Tiling.objective c digital layer tile)
      done
    done
  done;
  let s = solve_exn c digital layer in
  Alcotest.(check bool) "tiled regime" true s.Dory.Tiling.tiled;
  Alcotest.(check (float 1e-9)) "solver attains the brute-force optimum" !best
    s.Dory.Tiling.objective;
  (* And in the untiled regime it short-circuits to the full tile. *)
  let c_big = cfg ~budget:(Util.Ints.kib 64) () in
  let s_big = solve_exn c_big digital layer in
  Alcotest.(check bool) "full tile when it fits" true
    (Tile.is_full layer s_big.Dory.Tiling.tile)

(* --- schedules --- *)

let build_schedule ?(budget = l1) layer accel =
  let c = cfg ~budget () in
  let s = solve_exn c accel layer in
  Dory.Schedule.build layer ~accel_name:accel.Arch.Accel.accel_name
    ~tile:s.Dory.Tiling.tile ~double_buffer:true

let test_schedule_valid_untiled () =
  let layer = T.conv_layer ~c:16 ~k:16 ~hw:16 () in
  let s = build_schedule layer digital in
  Alcotest.(check int) "single instance" 1 (Dory.Schedule.tile_count s);
  match Dory.Schedule.validate s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid schedule: %s" e

let test_schedule_valid_tiled () =
  let layer = T.conv_layer ~c:16 ~k:32 ~hw:32 () in
  let s = build_schedule ~budget:(Util.Ints.kib 8) layer digital in
  Alcotest.(check bool) "multiple tiles" true (Dory.Schedule.tile_count s > 1);
  match Dory.Schedule.validate s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid schedule: %s" e

let test_schedule_padding_at_borders () =
  let layer = T.conv_layer ~c:4 ~k:4 ~hw:8 ~f:3 ~pad:1 () in
  let tile = Tile.for_layer layer ~c:4 ~k:4 ~oy:4 ~ox:8 in
  let s = Dory.Schedule.build layer ~accel_name:"d" ~tile ~double_buffer:false in
  match s.Dory.Schedule.instances with
  | [ top; bottom ] ->
      Alcotest.(check int) "top tile pads above" 1 top.Dory.Schedule.pad_top;
      Alcotest.(check int) "top tile reads rows 0.." 0 top.Dory.Schedule.iy0;
      Alcotest.(check int) "no bottom pad on top tile" 0 top.Dory.Schedule.pad_bottom;
      Alcotest.(check int) "bottom tile pads below" 1 bottom.Dory.Schedule.pad_bottom;
      (* Bottom tile outputs rows 4..7 -> input rows 7..10 clipped at 7. *)
      Alcotest.(check int) "bottom tile origin" 3 bottom.Dory.Schedule.iy0;
      Alcotest.(check int) "halo rows transferred" 5 bottom.Dory.Schedule.dims.Tile.iy
  | l -> Alcotest.failf "expected 2 instances, got %d" (List.length l)

let test_schedule_weight_reload_per_k_block () =
  let layer = T.conv_layer ~c:16 ~k:32 ~hw:16 () in
  let tile = Tile.for_layer layer ~c:16 ~k:16 ~oy:8 ~ox:16 in
  let s = Dory.Schedule.build layer ~accel_name:"d" ~tile ~double_buffer:true in
  let reloads =
    List.length (List.filter (fun i -> i.Dory.Schedule.load_weights) s.instances)
  in
  Alcotest.(check int) "4 instances" 4 (Dory.Schedule.tile_count s);
  Alcotest.(check int) "one reload per k block" 2 reloads

let test_schedule_dense () =
  let layer = T.dense_layer ~c:640 ~k:128 () in
  let tile = Tile.for_layer layer ~c:640 ~k:50 ~oy:1 ~ox:1 in
  let s = Dory.Schedule.build layer ~accel_name:"d" ~tile ~double_buffer:true in
  Alcotest.(check int) "ceil(128/50)" 3 (Dory.Schedule.tile_count s);
  (match Dory.Schedule.validate s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid: %s" e);
  let last = List.nth s.instances 2 in
  Alcotest.(check int) "remainder tile" 28 last.Dory.Schedule.dims.Tile.k

let test_schedule_add () =
  let layer = T.add_layer ~c:8 ~hw:10 () in
  let tile = Tile.for_layer layer ~c:8 ~k:8 ~oy:4 ~ox:10 in
  let s = Dory.Schedule.build layer ~accel_name:"a" ~tile ~double_buffer:false in
  Alcotest.(check int) "ceil(10/4)" 3 (Dory.Schedule.tile_count s);
  match Dory.Schedule.validate s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid: %s" e

let prop_schedule_always_valid =
  Helpers.qtest ~count:150 "random tilings give valid schedules"
    QCheck.(
      quad (int_range 1 16) (int_range 1 12) (pair (int_range 1 12) (int_range 1 12))
        (pair (int_range 1 2) (int_range 0 2)))
    (fun (k, kt, (oyt, oxt), (stride, pad)) ->
      let layer = T.conv_layer ~c:8 ~k ~hw:12 ~f:3 ~stride ~pad () in
      let full = Tile.full layer in
      let tile =
        Tile.for_layer layer ~c:8 ~k:(min kt full.Tile.k) ~oy:(min oyt full.Tile.oy)
          ~ox:(min oxt full.Tile.ox)
      in
      let s = Dory.Schedule.build layer ~accel_name:"d" ~tile ~double_buffer:true in
      Dory.Schedule.validate s = Ok ())

(* --- memory planner --- *)

let req id bytes birth death = { Dory.Memplan.buffer_id = id; bytes; birth; death }

let test_memplan_reuse_disjoint_lifetimes () =
  let r =
    Dory.Memplan.plan Dory.Memplan.Reuse ~capacity:1000 ~align:4
      [ req 0 600 0 1; req 1 600 2 3 ]
  in
  match r with
  | Error e -> Alcotest.failf "plan failed: %s" (Dory.Memplan.error_to_string e)
  | Ok plan ->
      let p0 = Dory.Memplan.find plan 0 and p1 = Dory.Memplan.find plan 1 in
      Alcotest.(check int) "same slot" p0.Dory.Memplan.offset p1.Dory.Memplan.offset;
      Alcotest.(check int) "peak is one buffer" 600 plan.Dory.Memplan.peak_bytes

let test_memplan_no_reuse_stacks () =
  let r =
    Dory.Memplan.plan Dory.Memplan.No_reuse ~capacity:2000 ~align:4
      [ req 0 600 0 1; req 1 600 2 3 ]
  in
  match r with
  | Error e -> Alcotest.failf "plan failed: %s" (Dory.Memplan.error_to_string e)
  | Ok plan -> Alcotest.(check int) "stacked" 1200 plan.Dory.Memplan.peak_bytes

let test_memplan_oom () =
  match
    Dory.Memplan.plan Dory.Memplan.Reuse ~capacity:1000 ~align:4
      [ req 0 600 0 2; req 1 600 1 3 ]
  with
  | Error
      (Dory.Memplan.Out_of_memory { oom_buffer_id; oom_bytes; oom_offset; oom_capacity })
    ->
      (* The typed diagnosis names the second buffer: it overlaps the
         first in time, so it must stack above it and overflow. *)
      Alcotest.(check int) "failing buffer" 1 oom_buffer_id;
      Alcotest.(check int) "its size" 600 oom_bytes;
      Alcotest.(check int) "capacity" 1000 oom_capacity;
      Alcotest.(check bool) "allocation exceeds capacity" true
        (oom_offset + oom_bytes > oom_capacity)
  | Error e -> Alcotest.failf "expected OoM, got: %s" (Dory.Memplan.error_to_string e)
  | Ok _ -> Alcotest.fail "expected out of memory"

let test_memplan_malformed () =
  (match
     Dory.Memplan.plan Dory.Memplan.Reuse ~capacity:1000 ~align:4 [ req 3 (-1) 0 1 ]
   with
  | Error (Dory.Memplan.Malformed_request { bad_buffer_id }) ->
      Alcotest.(check int) "negative size rejected" 3 bad_buffer_id
  | _ -> Alcotest.fail "expected Malformed_request for negative size");
  match
    Dory.Memplan.plan Dory.Memplan.No_reuse ~capacity:1000 ~align:4 [ req 5 16 4 2 ]
  with
  | Error (Dory.Memplan.Malformed_request { bad_buffer_id }) ->
      Alcotest.(check int) "death before birth rejected" 5 bad_buffer_id
  | _ -> Alcotest.fail "expected Malformed_request for death < birth"

let test_memplan_alignment () =
  let r =
    Dory.Memplan.plan Dory.Memplan.Reuse ~capacity:100 ~align:8 [ req 0 3 0 1; req 1 3 0 1 ]
  in
  match r with
  | Error e -> Alcotest.failf "plan failed: %s" (Dory.Memplan.error_to_string e)
  | Ok plan ->
      let p1 = Dory.Memplan.find plan 1 in
      Alcotest.(check int) "aligned second buffer" 8 p1.Dory.Memplan.offset

let prop_memplan_no_overlap =
  Helpers.qtest ~count:200 "live buffers never overlap in space"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 15) (triple (int_range 1 400) (int_range 0 9) (int_range 0 9)))
    (fun specs ->
      let reqs =
        List.mapi
          (fun i (bytes, a, b) -> req i bytes (min a b) (max a b))
          specs
      in
      match Dory.Memplan.plan Dory.Memplan.Reuse ~capacity:1_000_000 ~align:4 reqs with
      | Error _ -> false
      | Ok plan ->
          List.for_all
            (fun r1 ->
              List.for_all
                (fun r2 ->
                  r1.Dory.Memplan.buffer_id >= r2.Dory.Memplan.buffer_id
                  || (not
                        (r1.Dory.Memplan.birth <= r2.Dory.Memplan.death
                        && r2.Dory.Memplan.birth <= r1.Dory.Memplan.death))
                  ||
                  let p1 = Dory.Memplan.find plan r1.Dory.Memplan.buffer_id in
                  let p2 = Dory.Memplan.find plan r2.Dory.Memplan.buffer_id in
                  p1.Dory.Memplan.offset + p1.Dory.Memplan.size <= p2.Dory.Memplan.offset
                  || p2.Dory.Memplan.offset + p2.Dory.Memplan.size <= p1.Dory.Memplan.offset)
                reqs)
            reqs)

(* The full planner invariant set, under both strategies: every placement
   is aligned and inside the arena, the peak is exactly the high-water
   mark, and no two time-overlapping buffers share bytes. *)
let prop_memplan_invariants =
  Helpers.qtest ~count:200 "placements aligned, in-arena, peak exact"
    QCheck.(
      pair bool
        (list_of_size (QCheck.Gen.int_range 1 15)
           (triple (int_range 0 400) (int_range 0 9) (int_range 0 9))))
    (fun (reuse, specs) ->
      let strategy = if reuse then Dory.Memplan.Reuse else Dory.Memplan.No_reuse in
      let align = 8 and capacity = 1_000_000 in
      let reqs =
        List.mapi (fun i (bytes, a, b) -> req i bytes (min a b) (max a b)) specs
      in
      match Dory.Memplan.plan strategy ~capacity ~align reqs with
      | Error _ -> false
      | Ok plan ->
          let tops =
            List.map
              (fun (p : Dory.Memplan.placement) ->
                p.Dory.Memplan.offset + p.Dory.Memplan.size)
              plan.Dory.Memplan.placements
          in
          List.for_all
            (fun (p : Dory.Memplan.placement) ->
              p.Dory.Memplan.offset mod align = 0
              && p.Dory.Memplan.offset >= 0
              && p.Dory.Memplan.offset + p.Dory.Memplan.size <= capacity)
            plan.Dory.Memplan.placements
          && plan.Dory.Memplan.peak_bytes = List.fold_left max 0 tops
          && List.length plan.Dory.Memplan.placements = List.length reqs)

(* --- emitter --- *)

(* --- solve signatures: sensitivity and collision behaviour --- *)

let test_cache_signature_keys () =
  let c = cfg () in
  let sg = Dory.Tiling.signature in
  let base = T.conv_layer () in
  (* Same geometry, different weight/bias values: the solver never
     observes tensor contents, so the keys must collide by design. *)
  Alcotest.(check string) "contents never keyed"
    (sg c ~accel:"diana_digital" base)
    (sg c ~accel:"diana_digital" (T.conv_layer ~seed:99 ()));
  (* Every observable the solver can react to must change the key. *)
  let keys =
    [ sg c ~accel:"diana_digital" base;
      sg c ~accel:"diana_analog" base;
      sg { c with Dory.Tiling.l1_budget = c.Dory.Tiling.l1_budget / 2 }
        ~accel:"diana_digital" base;
      sg { c with Dory.Tiling.double_buffer = false } ~accel:"diana_digital" base;
      sg { c with Dory.Tiling.use_pe_heuristics = false } ~accel:"diana_digital" base;
      sg c ~accel:"diana_digital" (T.conv_layer ~k:16 ());
      sg c ~accel:"diana_digital" (T.conv_layer ~hw:16 ());
      sg c ~accel:"diana_digital" (T.conv_layer ~stride:2 ());
      sg c ~accel:"diana_digital" (T.conv_layer ~wdtype:Tensor.Dtype.Ternary ());
      sg c ~accel:"diana_digital" (T.dense_layer ());
      sg c ~accel:"diana_digital" (T.dw_layer ());
    ]
  in
  Alcotest.(check int) "all observables keyed"
    (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_cache_collision_replays_outcome () =
  (* Two layers with colliding signatures get equal outcomes — solution
     *and* search statistics — so the store can answer the second with
     the first's recorded outcome. This is the property that keeps
     store-backed compilations bit-identical to storeless ones. *)
  let c = cfg ~budget:(Util.Ints.kib 16) () in
  let a = T.conv_layer () and b = T.conv_layer ~seed:99 () in
  Alcotest.(check string) "signatures collide"
    (Dory.Tiling.signature c ~accel:"diana_digital" a)
    (Dory.Tiling.signature c ~accel:"diana_digital" b);
  Alcotest.(check bool) "equal solve_stats" true
    (Dory.Tiling.solve_stats c digital a = Dory.Tiling.solve_stats c digital b)

let test_cache_signature_adversarial_names () =
  (* Regression: the signature used to be plain concatenation with
     '|'/';'/':' separators, so an accelerator name containing a
     separator could shift field boundaries and collide two distinct
     (config, accel, layer) triples. The length-prefixed encoding makes
     every adversarial name produce its own key. *)
  let c = cfg () in
  let sg = Dory.Tiling.signature in
  let layer = T.conv_layer () in
  let names =
    [ "a"; "a|"; "|a"; "a|b"; "a;b"; "a:b"; "|"; ";"; ""; "a|b;c:d";
      "diana_digital"; "diana_digital|" ]
  in
  let keys = List.map (fun accel -> sg c ~accel layer) names in
  Alcotest.(check int) "adversarial accel names all keyed apart"
    (List.length keys)
    (List.length (List.sort_uniq compare keys));
  (* Cross-field injection: a name that textually contains the start of
     the config rendering still cannot impersonate a different config. *)
  let smuggled = sg c ~accel:"a|1.0;true" layer in
  List.iter
    (fun k ->
      Alcotest.(check bool) "no cross-field impersonation" false (k = smuggled))
    keys;
  (* The encoding is decodable, so the accel field survives verbatim. *)
  List.iter2
    (fun accel key ->
      match Util.Key.decode key with
      | Some (first :: _) -> Alcotest.(check string) "accel field" accel first
      | _ -> Alcotest.fail "signature is not a well-formed key encoding")
    names keys

let test_emit_layer_mentions_structure () =
  let layer = T.conv_layer ~c:16 ~k:32 ~hw:32 () in
  let s = build_schedule ~budget:(Util.Ints.kib 8) layer digital in
  let src = Dory.Emit.emit_network [ (3, s) ] in
  List.iter
    (fun needle ->
      if not (Helpers.contains src needle) then Alcotest.failf "emitted C lacks %s" needle)
    [ "htvm_layer_3"; "dma_in"; "dma_out"; "diana_digital_conv2d"; "load_weights" ]

let test_emit_network () =
  let layer = T.conv_layer ~c:8 ~k:8 ~hw:8 () in
  let s = build_schedule layer digital in
  let src = Dory.Emit.emit_network [ (0, s); (1, s) ] in
  Alcotest.(check bool) "run function" true (Helpers.contains src "htvm_network_run");
  Alcotest.(check bool) "calls layer 1" true (Helpers.contains src "htvm_layer_1")

let suites =
  [ ( "dory",
      [ Alcotest.test_case "untiled when L1 large" `Quick test_untiled_when_l1_large;
        Alcotest.test_case "tiled when L1 small" `Quick test_tiled_when_l1_small;
        Alcotest.test_case "no feasible tile" `Quick test_no_feasible_tile;
        Alcotest.test_case "heuristics help" `Quick test_heuristics_prefer_aligned_tiles;
        Alcotest.test_case "dense weight tiling" `Quick test_dense_weight_memory_tiling;
        Alcotest.test_case "analog k cap" `Quick test_analog_k_capped_at_macro_columns;
        Alcotest.test_case "c kept whole" `Quick test_solver_keeps_input_channels_whole;
        Alcotest.test_case "solver vs brute force" `Quick test_solver_matches_brute_force;
        Alcotest.test_case "schedule untiled" `Quick test_schedule_valid_untiled;
        Alcotest.test_case "schedule tiled" `Quick test_schedule_valid_tiled;
        Alcotest.test_case "schedule border padding" `Quick test_schedule_padding_at_borders;
        Alcotest.test_case "weight reload per k" `Quick test_schedule_weight_reload_per_k_block;
        Alcotest.test_case "schedule dense" `Quick test_schedule_dense;
        Alcotest.test_case "schedule add" `Quick test_schedule_add;
        prop_schedule_always_valid;
        Alcotest.test_case "memplan reuse" `Quick test_memplan_reuse_disjoint_lifetimes;
        Alcotest.test_case "memplan no-reuse" `Quick test_memplan_no_reuse_stacks;
        Alcotest.test_case "memplan oom" `Quick test_memplan_oom;
        Alcotest.test_case "memplan malformed" `Quick test_memplan_malformed;
        Alcotest.test_case "memplan alignment" `Quick test_memplan_alignment;
        prop_memplan_no_overlap;
        prop_memplan_invariants;
        Alcotest.test_case "cache signature keys" `Quick test_cache_signature_keys;
        Alcotest.test_case "cache signature adversarial names" `Quick
          test_cache_signature_adversarial_names;
        Alcotest.test_case "cache collision replay" `Quick
          test_cache_collision_replays_outcome;
        Alcotest.test_case "emit layer" `Quick test_emit_layer_mentions_structure;
        Alcotest.test_case "emit network" `Quick test_emit_network;
      ] )
  ]
