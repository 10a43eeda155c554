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
   including configs with the in-process solver cache on. *)
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
        ] )
  ]
