(* The persistent content-addressed store: verified replay under every
   corruption we can synthesize (truncation, bit flips, version skew,
   foreign bytes), atomic concurrent writers, LRU gc, and the headline
   compile-level invariant — a warm compile is byte-identical to a cold
   one, and a corrupted entry is recomputed and overwritten, never
   served and never a crash. *)

let with_store f =
  let dir = Filename.temp_file "htvm-test-store" "" in
  Sys.remove dir;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

(* The on-disk file behind a key, located without touching the handle's
   counters: tier dir -> 2-hex shard -> digest file. *)
let entry_file root tier key =
  let digest = Digest.to_hex (Digest.string key) in
  Filename.concat
    (Filename.concat (Filename.concat (Filename.concat root "v1") tier)
       (String.sub digest 0 2))
    digest

let read_raw path = In_channel.with_open_bin path In_channel.input_all

let write_raw path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let test_roundtrip_and_counters () =
  with_store (fun root ->
      let st = Store.open_root root in
      Alcotest.(check bool) "cold lookup misses" true
        (Store.find st Store.Layer ~key:"k" = None);
      Store.put st Store.Layer ~key:"k" "payload bytes\x00\xff";
      Alcotest.(check (option string)) "roundtrip"
        (Some "payload bytes\x00\xff")
        (Store.find st Store.Layer ~key:"k");
      (* Tiers are separate key spaces. *)
      Alcotest.(check bool) "other tier misses" true
        (Store.find st Store.Artifact ~key:"k" = None);
      Store.put st Store.Layer ~key:"k" "replaced";
      Alcotest.(check (option string)) "overwrite wins" (Some "replaced")
        (Store.find st Store.Layer ~key:"k");
      Alcotest.(check int) "hits" 2 (Store.hits st);
      Alcotest.(check int) "misses" 2 (Store.misses st);
      Alcotest.(check int) "rejects" 0 (Store.rejects st);
      (* A second handle on the same root sees the same entries: the
         store is shared across processes by construction. *)
      let st2 = Store.open_root root in
      Alcotest.(check (option string)) "second handle hits" (Some "replaced")
        (Store.find st2 Store.Layer ~key:"k"))

(* Each corruption must read as a reject (entry deleted), after which
   the key misses — the recompute-and-overwrite path. *)
let corruption_case name corrupt =
  ( name,
    fun () ->
      with_store (fun root ->
          let st = Store.open_root root in
          Store.put st Store.Artifact ~key:"model" "the artifact payload";
          let path = entry_file root "artifact" "model" in
          Alcotest.(check bool) (name ^ ": entry exists") true
            (Sys.file_exists path);
          corrupt path;
          Alcotest.(check bool) (name ^ ": rejected, not served") true
            (Store.find st Store.Artifact ~key:"model" = None);
          Alcotest.(check int) (name ^ ": reject counted") 1 (Store.rejects st);
          Alcotest.(check bool) (name ^ ": entry deleted") false
            (Sys.file_exists path);
          (* The caller recomputes and overwrites; the store serves the
             fresh entry again. *)
          Store.put st Store.Artifact ~key:"model" "recomputed";
          Alcotest.(check (option string)) (name ^ ": overwritten")
            (Some "recomputed")
            (Store.find st Store.Artifact ~key:"model")) )

let corruption_cases =
  [
    corruption_case "truncated" (fun path ->
        let raw = read_raw path in
        write_raw path (String.sub raw 0 (String.length raw - 3)));
    corruption_case "flipped byte" (fun path ->
        let raw = read_raw path in
        let b = Bytes.of_string raw in
        let i = String.length raw - 1 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
        write_raw path (Bytes.to_string b));
    corruption_case "stale version header" (fun path ->
        let raw = read_raw path in
        (* Pretend the entry was written by an older format. *)
        let nl = String.index raw '\n' in
        let body = String.sub raw nl (String.length raw - nl) in
        write_raw path ("htvm-store v0 artifact deadbeef 20" ^ body));
    corruption_case "wrong tier header" (fun path ->
        let raw = read_raw path in
        let nl = String.index raw '\n' in
        let head = String.sub raw 0 nl in
        let body = String.sub raw nl (String.length raw - nl) in
        let swapped =
          String.split_on_char ' ' head
          |> List.map (fun w -> if w = "artifact" then "layer" else w)
          |> String.concat " "
        in
        write_raw path (swapped ^ body));
    corruption_case "foreign file" (fun path ->
        write_raw path "not a store entry at all\n");
    corruption_case "empty file" (fun path -> write_raw path "");
  ]

(* Concurrent writers racing the same key (separate domains, each with
   its own handle, like independent CLI invocations sharing a cache
   dir): writes are temp+rename atomic, so any interleaving leaves a
   complete, digest-valid entry — a reader never sees a torn one. *)
let test_concurrent_writers () =
  with_store (fun root ->
      let st = Store.open_root root in
      let payload = String.make 65536 'p' in
      let spawn () =
        Domain.spawn (fun () ->
            let writer = Store.open_root root in
            for _ = 1 to 25 do
              Store.put writer Store.Layer ~key:"raced" payload
            done)
      in
      let a = spawn () and b = spawn () in
      (* Read while both writers are racing: every observation must be
         absent or complete — never a torn entry. *)
      for _ = 1 to 50 do
        match Store.find st Store.Layer ~key:"raced" with
        | None -> ()
        | Some got ->
            Alcotest.(check bool) "mid-race read is complete" true
              (got = payload)
      done;
      Domain.join a;
      Domain.join b;
      Alcotest.(check int) "no rejects under race" 0 (Store.rejects st);
      Alcotest.(check (option string)) "settled entry valid" (Some payload)
        (Store.find st Store.Layer ~key:"raced"))

let test_verify_scan () =
  with_store (fun root ->
      let st = Store.open_root root in
      Store.put st Store.Layer ~key:"a" "aa";
      Store.put st Store.Layer ~key:"b" "bb";
      Store.put st Store.Artifact ~key:"c" "cc";
      let raw = read_raw (entry_file root "layer" "b") in
      write_raw (entry_file root "layer" "b")
        (String.sub raw 0 (String.length raw - 1));
      let ok, removed = Store.verify st in
      Alcotest.(check int) "ok" 2 ok;
      Alcotest.(check int) "removed" 1 removed;
      Alcotest.(check int) "reject counted" 1 (Store.rejects st);
      let index = read_raw (Filename.concat (Filename.concat root "v1") "index") in
      Alcotest.(check bool) "index header" true
        (String.length index >= 19
        && String.sub index 0 19 = "htvm-store-index v1");
      Alcotest.(check int) "index lists survivors" 2
        (List.length
           (List.filter
              (fun l -> l <> "" && not (String.length l > 10 && l.[0] = 'h'))
              (String.split_on_char '\n' index))))

let test_gc_lru () =
  with_store (fun root ->
      let st = Store.open_root root in
      let payload i = String.make 100 (Char.chr (Char.code 'a' + i)) in
      List.iteri
        (fun i key -> Store.put st Store.Layer ~key (payload i))
        [ "old"; "mid"; "new" ];
      (* Pin explicit mtimes so LRU order is deterministic. *)
      List.iteri
        (fun i key ->
          let t = float_of_int (1_000_000 + (i * 1000)) in
          Unix.utimes (entry_file root "layer" key) t t)
        [ "old"; "mid"; "new" ];
      let total = Store.total_bytes (Store.entries st) in
      (* Cap at just under the total: exactly one (the oldest) must go. *)
      let evicted = Store.gc st ~max_bytes:(total - 1) in
      Alcotest.(check int) "one evicted" 1 evicted;
      Alcotest.(check int) "eviction counted" 1 (Store.evictions st);
      Alcotest.(check bool) "oldest gone" true
        (Store.find st Store.Layer ~key:"old" = None);
      Alcotest.(check bool) "newer kept" true
        (Store.find st Store.Layer ~key:"mid" <> None
        && Store.find st Store.Layer ~key:"new" <> None);
      (* A hit refreshes recency: touch "mid", then shrink to one entry —
         "new" (now least recently used) is evicted, "mid" survives. *)
      Unix.utimes (entry_file root "layer" "new") 2_000_000. 2_000_000.;
      ignore (Store.find st Store.Layer ~key:"mid");
      let one = Store.total_bytes (Store.entries st) / 2 in
      ignore (Store.gc st ~max_bytes:one);
      Alcotest.(check bool) "LRU respects hit recency" true
        (Store.find st Store.Layer ~key:"mid" <> None
        && Store.find st Store.Layer ~key:"new" = None);
      ignore (Store.gc st ~max_bytes:0);
      Alcotest.(check bool) "cap 0 empties the store" true
        (Store.entries st = []))

(* --- compile-level integration --- *)

let zoo_graph name = (Models.Zoo.find name).Models.Zoo.build Models.Policy.Mixed

let compile_with store cfg g =
  match Htvm.Compile.compile ?store cfg g with
  | Ok a -> a
  | Error e -> Alcotest.failf "compile failed: %s" (Htvm.Compile.error_to_string e)

let test_warm_compile_byte_identical () =
  with_store (fun root ->
      let g = zoo_graph "resnet8" in
      let cfg = Htvm.Compile.default_config Arch.Diana.platform in
      let cold_st = Store.open_root root in
      let cold = compile_with (Some cold_st) cfg g in
      Alcotest.(check int) "cold run hits nothing" 0 (Store.hits cold_st);
      let warm_st = Store.open_root root in
      let warm = compile_with (Some warm_st) cfg g in
      Alcotest.(check bool) "warm run hit the artifact tier" true
        (Store.hits warm_st > 0);
      Alcotest.(check string) "byte-identical artifact digest"
        (Htvm.Compile.artifact_digest cold)
        (Htvm.Compile.artifact_digest warm);
      Alcotest.(check bool) "same solver stats" true
        (cold.Htvm.Compile.solver = warm.Htvm.Compile.solver);
      (* The replayed artifact must also *run* identically. *)
      let inputs = Models.Zoo.random_input ~seed:5 g in
      let out_c, rep_c = Htvm.Compile.run cold ~inputs in
      let out_w, rep_w = Htvm.Compile.run warm ~inputs in
      Alcotest.(check bool) "same output" true (Tensor.equal out_c out_w);
      Alcotest.(check int) "same cycles"
        (Htvm.Compile.full_cycles rep_c)
        (Htvm.Compile.full_cycles rep_w);
      (* An uncached compile agrees too: the store changes nothing. *)
      let plain = compile_with None cfg g in
      Alcotest.(check string) "store changes nothing"
        (Htvm.Compile.artifact_digest plain)
        (Htvm.Compile.artifact_digest cold))

let test_warm_compile_across_zoo () =
  with_store (fun root ->
      List.iter
        (fun (entry : Models.Zoo.entry) ->
          let g = entry.Models.Zoo.build Models.Policy.Mixed in
          let cfg = Htvm.Compile.default_config Arch.Diana.platform in
          match Htvm.Compile.compile ~store:(Store.open_root root) cfg g with
          | Error _ -> ()  (* a legitimate resource rejection is not cached *)
          | Ok cold ->
              let warm_st = Store.open_root root in
              let warm = compile_with (Some warm_st) cfg g in
              Alcotest.(check bool)
                (entry.Models.Zoo.model_name ^ ": warm hit") true
                (Store.hits warm_st > 0);
              Alcotest.(check string)
                (entry.Models.Zoo.model_name ^ ": digest")
                (Htvm.Compile.artifact_digest cold)
                (Htvm.Compile.artifact_digest warm))
        Models.Zoo.all)

(* Corrupt every stored entry between a cold and a warm compile: the
   warm compile must silently recompute (rejects counted), produce the
   identical artifact, and leave the store repaired. *)
let test_corrupt_entries_recomputed () =
  with_store (fun root ->
      let g = zoo_graph "resnet8" in
      let cfg = Htvm.Compile.default_config Arch.Diana.platform in
      let cold = compile_with (Some (Store.open_root root)) cfg g in
      let st = Store.open_root root in
      let entries = Store.entries st in
      Alcotest.(check bool) "store populated" true (List.length entries > 1);
      List.iter
        (fun (e : Store.entry) ->
          let tier =
            match e.Store.e_tier with
            | Store.Layer -> "layer"
            | Store.Artifact -> "artifact"
          in
          let path =
            Filename.concat
              (Filename.concat
                 (Filename.concat (Filename.concat root "v1") tier)
                 (String.sub e.Store.e_digest 0 2))
              e.Store.e_digest
          in
          let raw = read_raw path in
          let b = Bytes.of_string raw in
          let i = Bytes.length b / 2 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
          write_raw path (Bytes.to_string b))
        entries;
      let warm_st = Store.open_root root in
      let warm = compile_with (Some warm_st) cfg g in
      Alcotest.(check bool) "corruption rejected" true
        (Store.rejects warm_st > 0);
      Alcotest.(check string) "recomputed artifact byte-identical"
        (Htvm.Compile.artifact_digest cold)
        (Htvm.Compile.artifact_digest warm);
      (* Overwritten: a third compile is a clean artifact-tier hit. *)
      let third_st = Store.open_root root in
      let third = compile_with (Some third_st) cfg g in
      Alcotest.(check bool) "store repaired" true (Store.hits third_st > 0);
      Alcotest.(check int) "no rejects after repair" 0 (Store.rejects third_st);
      Alcotest.(check string) "repaired artifact byte-identical"
        (Htvm.Compile.artifact_digest cold)
        (Htvm.Compile.artifact_digest third))

(* Version skew: a different code version must never serve this one's
   entries — the key embeds the version, so it reads as a plain miss. *)
let test_version_skew_is_a_miss () =
  with_store (fun root ->
      let g = zoo_graph "resnet8" in
      let cfg = Htvm.Compile.default_config Arch.Diana.platform in
      let key = Htvm.Compile.artifact_store_key cfg g in
      let st = Store.open_root root in
      Store.put st Store.Artifact ~key:("skewed-version:" ^ key) "old bytes";
      let warm_st = Store.open_root root in
      let a = compile_with (Some warm_st) cfg g in
      Alcotest.(check bool) "skewed entry never consulted as a hit" true
        (Store.hits warm_st = 0);
      ignore a)

(* Platform variants keep the base platform's name: one shared store
   serving the same graph on cpu, digital and an 8 kB-L1 digital SoC must
   return each configuration's own artifact, cold and warm. *)
let test_platform_variants_do_not_collide () =
  with_store (fun root ->
      let g = (Models.Zoo.find "resnet8").Models.Zoo.build Models.Policy.All_int8 in
      let small_l1 =
        {
          Arch.Diana.digital_only with
          Arch.Platform.l1 =
            { Arch.Diana.digital_only.Arch.Platform.l1 with
              Arch.Memory.size_bytes = Util.Ints.kib 8 };
        }
      in
      let configs =
        List.map
          (fun (name, p) -> (name, Htvm.Compile.default_config p))
          [ ("cpu", Arch.Diana.cpu_only); ("digital", Arch.Diana.digital_only);
            ("digital 8 kB L1", small_l1) ]
      in
      let expected =
        List.map
          (fun (name, cfg) ->
            (name, Htvm.Compile.artifact_digest (compile_with None cfg g)))
          configs
      in
      List.iter
        (fun pass ->
          List.iter2
            (fun (name, cfg) (_, digest) ->
              let a = compile_with (Some (Store.open_root root)) cfg g in
              Alcotest.(check string)
                (Printf.sprintf "%s (%s pass)" name pass)
                digest (Htvm.Compile.artifact_digest a))
            configs expected)
        [ "cold"; "warm" ])

(* qcheck: cold vs warm byte-identity over fuzzed graph/config pairs,
   at whatever job count and search mode the generator picked. *)
let prop_cold_warm_identical =
  Helpers.qtest ~count:12 "cold vs warm compile byte-identical (fuzzed)"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      with_store (fun root ->
          let g = Check.Gen.generate seed in
          let cfg = Check.Gen.random_config seed in
          match Htvm.Compile.compile ~store:(Store.open_root root) cfg g with
          | Error _ -> true
          | Ok cold -> (
              let warm_st = Store.open_root root in
              match Htvm.Compile.compile ~store:warm_st cfg g with
              | Error _ -> false
              | Ok warm ->
                  Store.hits warm_st > 0
                  && Htvm.Compile.artifact_digest cold
                     = Htvm.Compile.artifact_digest warm)))

(* --- decisions, not bytes --- *)

let digest = Htvm.Compile.artifact_digest

let both_cfg () = Htvm.Compile.default_config Arch.Diana.platform

let counts st = (Store.hits st, Store.misses st, Store.rejects st)

let check_counts msg expected st =
  Alcotest.(check (triple int int int)) msg expected (counts st)

(* The decisions an entry holds depend on the graph's structure, not on
   its weights: a weight variant of a stored network reads the one entry
   and replays it without a single solve, yet yields its own artifact. *)
let test_weight_variants_share_entry () =
  List.iter
    (fun (e : Models.Zoo.entry) ->
      with_store (fun root ->
          let name = e.Models.Zoo.model_name in
          let cfg = both_cfg () in
          let g1 = e.Models.Zoo.build ~seed:1 Models.Policy.Mixed in
          let g2 = e.Models.Zoo.build ~seed:2 Models.Policy.Mixed in
          let a1 = compile_with (Some (Store.open_root root)) cfg g1 in
          let st = Store.open_root root in
          Dory.Tiling.reset_solver_work ();
          let a2 = compile_with (Some st) cfg g2 in
          check_counts (name ^ ": one hit, no miss") (1, 0, 0) st;
          Alcotest.(check int) (name ^ ": no solve") 0
            (Dory.Tiling.solver_work ()).Dory.Tiling.solves;
          Alcotest.(check string) (name ^ ": seed 2's own artifact")
            (digest (compile_with None cfg g2)) (digest a2);
          Alcotest.(check bool) (name ^ ": not seed 1's artifact") true
            (digest a1 <> digest a2)))
    Models.Zoo.all

(* A digest-valid entry filed under the wrong key (here resnet8's
   decisions under ds_cnn's key) is only a hint: its replay asks other
   questions than it recorded, so the compile rejects it, returns the
   cold artifact and overwrites the entry. *)
let test_entry_is_a_hint () =
  with_store (fun root ->
      let cfg = both_cfg () in
      let donor = zoo_graph "resnet8" and g = zoo_graph "ds_cnn" in
      ignore (compile_with (Some (Store.open_root root)) cfg donor);
      let src = entry_file root "artifact" (Htvm.Compile.artifact_store_key cfg donor) in
      let dst = entry_file root "artifact" (Htvm.Compile.artifact_store_key cfg g) in
      if not (Sys.file_exists (Filename.dirname dst)) then
        Sys.mkdir (Filename.dirname dst) 0o755;
      write_raw dst (read_raw src);
      let st = Store.open_root root in
      let warm = compile_with (Some st) cfg g in
      Alcotest.(check string) "the cold artifact"
        (digest (compile_with None cfg g)) (digest warm);
      Alcotest.(check int) "one reject" 1 (Store.rejects st);
      Alcotest.(check bool) "entry overwritten" true (read_raw dst <> read_raw src);
      let again_st = Store.open_root root in
      let again = compile_with (Some again_st) cfg g in
      check_counts "next compile is a clean hit" (1, 0, 0) again_st;
      Alcotest.(check string) "same artifact" (digest warm) (digest again))

(* The layer tier answers what the artifact tier cannot: with the
   artifact entry gone, a compile of the same deployment solves nothing,
   reading every primary solve from the layer tier, and still yields the
   cold artifact. The cold compile demotes nothing: ladder rungs never
   consult the layer tier, so a demotion would be solved again. *)
let test_layer_tier_answers_artifact_miss () =
  with_store (fun root ->
      let cfg = both_cfg () and g = zoo_graph "resnet8" in
      let cold = compile_with (Some (Store.open_root root)) cfg g in
      Alcotest.(check int) "no demotions" 0 (List.length cold.Htvm.Compile.demotions);
      Store.invalidate (Store.open_root root) Store.Artifact
        ~key:(Htvm.Compile.artifact_store_key cfg g);
      Dory.Tiling.reset_solver_work ();
      let st = Store.open_root root in
      let warm = compile_with (Some st) cfg g in
      Alcotest.(check int) "no solve" 0 (Dory.Tiling.solver_work ()).Dory.Tiling.solves;
      Alcotest.(check bool) "layer hits" true (Store.hits st > 0);
      Alcotest.(check int) "one miss: the artifact entry" 1 (Store.misses st);
      Alcotest.(check int) "no reject" 0 (Store.rejects st);
      Alcotest.(check string) "the cold artifact" (digest cold) (digest warm))

(* Autotuning results are decisions too: a warm cpu-only compile with a
   tuning budget replays every search instead of measuring again. *)
let test_tuning_replayed () =
  with_store (fun root ->
      let cfg =
        { (Htvm.Compile.default_config Arch.Diana.cpu_only) with
          Htvm.Compile.autotune_budget = Some 20_000 }
      in
      List.iter
        (fun (e : Models.Zoo.entry) ->
          let name = e.Models.Zoo.model_name in
          let g = e.Models.Zoo.build Models.Policy.Mixed in
          let cold = compile_with (Some (Store.open_root root)) cfg g in
          let st = Store.open_root root in
          let warm = compile_with (Some st) cfg g in
          check_counts (name ^ ": one hit") (1, 0, 0) st;
          Alcotest.(check bool) (name ^ ": tuned") true
            (cold.Htvm.Compile.tuning_trials > 0);
          Alcotest.(check int) (name ^ ": tuning trials")
            cold.Htvm.Compile.tuning_trials warm.Htvm.Compile.tuning_trials;
          Alcotest.(check string) (name ^ ": digest") (digest cold) (digest warm))
        Models.Zoo.all)

(* The codec fixture. These encodings pin the store's format: a change
   that breaks them must also bump the code version, pinned here as the
   first field of every store key, so old entries read as misses. *)
let fixture_version = "htvm-code-v3"

let fixture_ok =
  "2:ok1:82:161:41:81:62:1020:0x1.3333333333334p-220:0x1.5555555555555p-24:true2:122:402:311:9"

let fixture_error =
  "5:error35:conv2d 16x32x32 -> 32x16x16 k3x3 s213:diana_digital3:5121:71:01:2"

let ok_outcome =
  {
    Dory.Tiling.result =
      Ok
        {
          Dory.Tiling.tile = { Arch.Tile.c = 8; k = 16; oy = 4; ox = 8; iy = 6; ix = 10 };
          objective = 0.1 +. 0.2;
          mem_utilization = 1.0 /. 3.0;
          tiled = true;
          tile_count = 12;
        };
    stats = { Dory.Tiling.explored = 40; feasible = 31; pruned = 9 };
  }

let error_outcome =
  {
    Dory.Tiling.result =
      Error
        {
          Dory.Tiling.inf_layer = "conv2d 16x32x32 -> 32x16x16 k3x3 s2";
          inf_accel = "diana_digital";
          inf_l1_budget = 512;
        };
    stats = { Dory.Tiling.explored = 7; feasible = 0; pruned = 2 };
  }

let test_codec_fixture () =
  List.iter
    (fun (name, fixture, outcome) ->
      Alcotest.(check bool) (name ^ ": fixture decodes") true
        (Htvm.Compile.decode_outcome fixture = Some outcome);
      Alcotest.(check string) (name ^ ": encoding pinned") fixture
        (Htvm.Compile.encode_outcome outcome))
    [ ("ok", fixture_ok, ok_outcome); ("error", fixture_error, error_outcome) ];
  match Util.Key.decode (Htvm.Compile.artifact_store_key (both_cfg ()) (zoo_graph "resnet8")) with
  | Some (version :: _) -> Alcotest.(check string) "code version" fixture_version version
  | _ -> Alcotest.fail "store key is not a Util.Key encoding"

let fields s = Option.get (Util.Key.decode s)

(* The four malformed payload shapes, applied to an encoded outcome. *)
let malformed =
  [
    ("truncated", fun s -> String.sub s 0 (String.length s - 1));
    ("trailing byte", fun s -> s ^ "0");
    ("unknown tag", fun s -> Util.Key.encode ("maybe" :: List.tl (fields s)));
    ( "non-numeric",
      fun s ->
        (* The last field, the pruned count, is numeric in every outcome. *)
        match List.rev (fields s) with
        | _ :: rest -> Util.Key.encode (List.rev ("many" :: rest))
        | [] -> Alcotest.fail "outcome has no field" );
  ]

let test_codec_rejects_malformed () =
  List.iter
    (fun (name, corrupt) ->
      List.iter
        (fun fixture ->
          Alcotest.(check bool) (name ^ " decodes to None") true
            (Htvm.Compile.decode_outcome (corrupt fixture) = None))
        [ fixture_ok; fixture_error ])
    malformed

(* Through compile: each malformed shape, applied to the first outcome
   of a real artifact-tier entry (the whole entry, for truncation and a
   trailing byte), is one reject and a recompute that restores the
   entry. An entry is three fields: solver totals, the solves (each a
   signature with its outcome) and the tunes. *)
let test_malformed_entries_recomputed () =
  with_store (fun root ->
      let cfg = both_cfg () and g = zoo_graph "resnet8" in
      let cold = compile_with (Some (Store.open_root root)) cfg g in
      let key = Htvm.Compile.artifact_store_key cfg g in
      let payload = Option.get (Store.find (Store.open_root root) Store.Artifact ~key) in
      let first_outcome corrupt =
        match fields payload with
        | [ stats; solves; tunes ] -> (
            match fields solves with
            | first :: rest -> (
                match fields first with
                | [ q; o ] ->
                    Util.Key.encode
                      [ stats;
                        Util.Key.encode (Util.Key.encode [ q; corrupt o ] :: rest);
                        tunes ]
                | _ -> Alcotest.fail "a solve is not two fields")
            | [] -> Alcotest.fail "entry records no solve")
        | _ -> Alcotest.fail "entry is not three fields"
      in
      List.iter
        (fun (name, corrupt) ->
          let bad =
            match name with
            | "truncated" | "trailing byte" -> corrupt payload
            | _ -> first_outcome corrupt
          in
          Store.put (Store.open_root root) Store.Artifact ~key bad;
          let st = Store.open_root root in
          let warm = compile_with (Some st) cfg g in
          Alcotest.(check int) (name ^ ": one reject") 1 (Store.rejects st);
          Alcotest.(check string) (name ^ ": recomputed") (digest cold) (digest warm);
          Alcotest.(check (option string)) (name ^ ": entry restored") (Some payload)
            (Store.find (Store.open_root root) Store.Artifact ~key))
        malformed)

let outcome_gen =
  let open QCheck.Gen in
  let stats =
    map3 (fun explored feasible pruned -> { Dory.Tiling.explored; feasible; pruned }) int int int
  in
  let tile =
    map3
      (fun (c, k) (oy, ox) (iy, ix) -> { Arch.Tile.c; k; oy; ox; iy; ix })
      (pair int int) (pair int int) (pair int int)
  in
  let ok =
    map3
      (fun tile (objective, mem_utilization) (tiled, tile_count) ->
        Ok { Dory.Tiling.tile; objective; mem_utilization; tiled; tile_count })
      tile (pair float float) (pair bool int)
  in
  let error =
    map3
      (fun inf_layer inf_accel inf_l1_budget ->
        Error { Dory.Tiling.inf_layer; inf_accel; inf_l1_budget })
      string string int
  in
  map2 (fun result stats -> { Dory.Tiling.result; stats }) (oneof [ ok; error ]) stats

(* [compare], not [=]: a nan objective must round-trip too. *)
let prop_codec_round_trips =
  Helpers.qtest ~count:500 "outcome codec round-trips"
    (QCheck.make outcome_gen)
    (fun o ->
      match Htvm.Compile.decode_outcome (Htvm.Compile.encode_outcome o) with
      | Some o' -> compare o o' = 0
      | None -> false)

let suites =
  [ ( "store",
      [
        Alcotest.test_case "roundtrip and counters" `Quick
          test_roundtrip_and_counters;
      ]
      @ List.map
          (fun (name, f) ->
            Alcotest.test_case ("corrupt entry: " ^ name) `Quick f)
          corruption_cases
      @ [
          Alcotest.test_case "concurrent writers" `Quick test_concurrent_writers;
          Alcotest.test_case "verify scan" `Quick test_verify_scan;
          Alcotest.test_case "gc is LRU by mtime" `Quick test_gc_lru;
          Alcotest.test_case "warm compile byte-identical" `Quick
            test_warm_compile_byte_identical;
          Alcotest.test_case "warm compile across the zoo" `Quick
            test_warm_compile_across_zoo;
          Alcotest.test_case "corrupt entries recomputed" `Quick
            test_corrupt_entries_recomputed;
          Alcotest.test_case "version skew is a miss" `Quick
            test_version_skew_is_a_miss;
          Alcotest.test_case "platform variants do not collide" `Quick
            test_platform_variants_do_not_collide;
          prop_cold_warm_identical;
          Alcotest.test_case "weight variants share one decisions entry" `Quick
            test_weight_variants_share_entry;
          Alcotest.test_case "an entry is a hint, never a wrong answer" `Quick
            test_entry_is_a_hint;
          Alcotest.test_case "tuning results are replayed" `Quick
            test_tuning_replayed;
          Alcotest.test_case "layer tier answers an artifact-tier miss" `Quick
            test_layer_tier_answers_artifact_miss;
          Alcotest.test_case "codec fixture" `Quick test_codec_fixture;
          Alcotest.test_case "codec rejects malformed payloads" `Quick
            test_codec_rejects_malformed;
          Alcotest.test_case "malformed entries recomputed" `Quick
            test_malformed_entries_recomputed;
          prop_codec_round_trips;
        ] )
  ]
