(* Regression gate and self-test for bench/perf results.

     compare.exe [--bench FILE] DIR            spread of one result set
     compare.exe [--bench FILE] BASE NEW       regression gate, BASE -> NEW
     compare.exe [--bench FILE] --smoke PERF [--golden-dir DIR]

   A result set is a directory holding <workload>/<name>.json files, each
   the standard output of one perf.exe run (its last line is the
   result). Runs of the two sides are paired by file name, so name them
   after their seed.

   One set: one row per (workload, metric) with the median, quartiles
   and interquartile spread as a share of the median; exits 1 when a
   spread is wider than its bound (set-up time excepted).

   Two sets: one row per (workload, metric) with each side's median and
   quartiles and a verdict. A metric with bound 0 is exact: any change
   is improved or regressed. Otherwise the new median is regressed when
   it is worse than the base median by more than the bound; improved
   when the new side wins at least nine tenths of the paired runs and
   the medians differ by more than the base side's interquartile range;
   unresolved when either side's spread is wider than the bound, unless
   every new run reads better than every base run; same otherwise.
   Exits 1 on any regression, on a missing metric, and when the share
   of failed operations rose.

   --smoke runs every workload of FILE in smoke mode, untraced and
   traced, and checks that each run prints every metric FILE names with
   its unit and writes a trace that parses as JSON. *)

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("compare: " ^ msg);
      exit 2)
    fmt

type metric = { name : string; unit_ : string; lower : bool; bound : float option }

type bench = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let load_bench path =
  let doc =
    match Json_in.parse (Json_in.read_file path) with
    | Ok d -> d
    | Error e -> fail "%s: %s" path e
  in
  let list k = match Json_in.member k doc with Some (Trace.Json.List l) -> l | _ -> fail "%s: no %s list" path k in
  let str k o = match Json_in.member k o with Some (Trace.Json.Str s) -> s | _ -> fail "%s: entry without %s" path k in
  let metric o =
    {
      name = str "name" o;
      unit_ = str "unit" o;
      lower =
        (match str "better" o with
        | "lower" -> true
        | "higher" -> false
        | b -> fail "%s: better must be lower or higher, not %s" path b);
      bound = Option.bind (Json_in.member "bound" o) Json_in.to_float;
    }
  in
  {
    workloads = List.map (str "name") (list "workloads");
    end_to_end = List.map metric (list "end_to_end");
    per_layer = List.map metric (list "per_layer");
  }

(* --- result files --------------------------------------------------------- *)

type result = { attempted : int; failed : int; values : (string * (float * string)) list }

let result_of_line line =
  match Json_in.parse line with
  | Ok (Trace.Json.Obj _ as o) -> (
      match (Json_in.member "attempted" o, Json_in.member "failed" o, Json_in.member "metrics" o) with
      | Some (Trace.Json.Int a), Some (Trace.Json.Int f), Some (Trace.Json.Obj ms) ->
          let value (k, m) =
            match (Option.bind (Json_in.member "value" m) Json_in.to_float, Json_in.member "unit" m) with
            | Some v, Some (Trace.Json.Str u) -> Some (k, (v, u))
            | _ -> None
          in
          Some { attempted = a; failed = f; values = List.filter_map value ms }
      | _ -> None)
  | _ -> None

(* The result is the last line of a run's output. *)
let result_of_output text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.trim l <> "")
  |> List.rev
  |> function
  | last :: _ -> result_of_line last
  | [] -> None

let read_set dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then fail "%s is not a directory" dir;
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun w -> Sys.is_directory (Filename.concat dir w))
  |> List.map (fun w ->
         let wdir = Filename.concat dir w in
         let runs =
           Sys.readdir wdir |> Array.to_list |> List.sort compare
           |> List.filter (fun f -> Filename.check_suffix f ".json")
           |> List.map (fun f ->
                  let path = Filename.concat wdir f in
                  match result_of_output (Json_in.read_file path) with
                  | Some r -> (f, r)
                  | None -> fail "%s holds no result line" path)
         in
         (w, runs))

let values_of runs name =
  List.filter_map (fun (f, r) -> Option.map (fun (v, _) -> (f, v)) (List.assoc_opt name r.values)) runs

(* --- one set: spreads ------------------------------------------------------- *)

let pct x = 100.0 *. x

let spread_table bench set =
  Printf.printf "%-20s %-26s %-8s %14s %14s %14s %8s %7s\n" "workload" "metric" "unit" "q1" "median"
    "q3" "spread" "bound";
  let wide = ref false in
  List.iter
    (fun (w, runs) ->
      List.iter
        (fun m ->
          match values_of runs m.name with
          | [] -> ()
          | vs ->
              let xs = List.map snd vs in
              let q1, q2, q3 = Stats.quartiles xs in
              let s = Stats.spread xs in
              let bad = match m.bound with Some b -> s > b && m.name <> "setup_s" | None -> false in
              if bad then wide := true;
              Printf.printf "%-20s %-26s %-8s %14.6g %14.6g %14.6g %7.2f%% %7s%s\n" w m.name m.unit_ q1 q2
                q3 (pct s)
                (match m.bound with Some b -> Printf.sprintf "%.0f%%" (pct b) | None -> "-")
                (if bad then "  WIDE" else ""))
        (bench.end_to_end @ bench.per_layer))
    set;
  if !wide then exit 1

(* --- two sets: the gate ----------------------------------------------------- *)

(* How much worse [b] is than [a], as a share of [a]; negative = better. *)
let worse m a b =
  let d = if m.lower then b -. a else a -. b in
  if a = 0.0 then if d = 0.0 then 0.0 else Float.copy_sign infinity d else d /. Float.abs a

let verdict m base news =
  let xa = List.map snd base and xb = List.map snd news in
  let qa1, ma, qa3 = Stats.quartiles xa and _, mb, _ = Stats.quartiles xb in
  let better x y = if m.lower then y < x else y > x in
  match m.bound with
  | None -> if ma = mb then "same" else "info"
  | Some 0.0 ->
      let constant xs = List.for_all (( = ) (List.hd xs)) xs in
      if not (constant xa && constant xb) then "unresolved"
      else if ma = mb then "same"
      else if better ma mb then "improved"
      else "regressed"
  | Some bound ->
      let pairs =
        List.filter_map (fun (f, a) -> Option.map (fun b -> (a, b)) (List.assoc_opt f news)) base
      in
      let wins = List.length (List.filter (fun (a, b) -> better a b) pairs) in
      let all_better = List.for_all (fun b -> List.for_all (fun a -> better a b) xa) xb in
      if worse m ma mb > bound then "regressed"
      else if
        pairs <> []
        && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
        && better ma mb
        && Float.abs (mb -. ma) > qa3 -. qa1
      then "improved"
      else if (Stats.spread xa > bound || Stats.spread xb > bound) && not all_better then "unresolved"
      else "same"

let gate bench base news =
  let bad = ref false in
  Printf.printf "%-20s %-26s %-8s %30s %30s %8s  %s\n" "workload" "metric" "unit" "base median [q1, q3]"
    "new median [q1, q3]" "change" "verdict";
  let side xs =
    let q1, q2, q3 = Stats.quartiles xs in
    Printf.sprintf "%.6g [%.6g, %.6g]" q2 q1 q3
  in
  List.iter
    (fun w ->
      let runs_a = Option.value ~default:[] (List.assoc_opt w base) in
      let runs_b = Option.value ~default:[] (List.assoc_opt w news) in
      List.iter
        (fun m ->
          match (values_of runs_a m.name, values_of runs_b m.name) with
          | [], [] -> ()
          | [], _ | _, [] ->
              bad := true;
              Printf.printf "%-20s %-26s %-8s %30s %30s %8s  missing\n" w m.name m.unit_ "" "" ""
          | va, vb ->
              let v = verdict m va vb in
              if v = "regressed" then bad := true;
              let _, ma, _ = Stats.quartiles (List.map snd va) in
              let _, mb, _ = Stats.quartiles (List.map snd vb) in
              Printf.printf "%-20s %-26s %-8s %30s %30s %+7.2f%%  %s\n" w m.name m.unit_
                (side (List.map snd va)) (side (List.map snd vb))
                (if ma = 0.0 then 0.0 else pct ((mb -. ma) /. Float.abs ma))
                v)
        (bench.end_to_end @ bench.per_layer);
      let frac runs =
        let a = List.fold_left (fun acc (_, r) -> acc + r.attempted) 0 runs in
        let f = List.fold_left (fun acc (_, r) -> acc + r.failed) 0 runs in
        if a = 0 then 0.0 else float_of_int f /. float_of_int a
      in
      if runs_a <> [] && runs_b <> [] && frac runs_b > frac runs_a then begin
        bad := true;
        Printf.printf "%-20s failed share rose: %.6g -> %.6g  regressed\n" w (frac runs_a) (frac runs_b)
      end)
    bench.workloads;
  if !bad then exit 1

(* --- smoke ---------------------------------------------------------------- *)

let run_to_file prog args out =
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin fd Unix.stderr in
  Unix.close fd;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> fail "%s %s failed" prog (String.concat " " args)

let smoke bench perf golden =
  let perf = if Filename.is_implicit perf then Filename.concat Filename.current_dir_name perf else perf in
  List.iter
    (fun w ->
      List.iter
        (fun (flag, table) ->
          let out = Printf.sprintf "smoke-%s-trace%s.out" w flag in
          run_to_file perf
            [ "--workload"; w; "--smoke"; "--seconds"; "0"; "--trace"; flag; "--golden-dir"; golden ]
            out;
          let r =
            match result_of_output (Json_in.read_file out) with
            | Some r -> r
            | None -> fail "%s: no result line" out
          in
          List.iter
            (fun m ->
              match List.assoc_opt m.name r.values with
              | None -> fail "%s: metric %s not emitted" w m.name
              | Some (_, u) when u <> m.unit_ -> fail "%s: %s has unit %s, not %s" w m.name u m.unit_
              | Some _ -> ())
            table)
        [ ("0", bench.end_to_end); ("1", bench.per_layer) ];
      let trace = Printf.sprintf ".bench_perf/trace-%s-seed1.json" w in
      if not (Sys.file_exists trace) then fail "%s: no trace written" w;
      (match Json_in.parse (Json_in.read_file trace) with
      | Ok _ -> ()
      | Error e -> fail "%s is not valid JSON: %s" trace e);
      Printf.printf "smoke %s: every metric emitted, trace parses\n%!" w)
    bench.workloads

let () =
  let bench_file = ref "BENCHMARK.json" and smoke_perf = ref "" and golden = ref "test/golden" in
  let dirs = ref [] in
  Arg.parse
    [
      ("--bench", Arg.Set_string bench_file, "FILE benchmark definition (default BENCHMARK.json)");
      ("--smoke", Arg.Set_string smoke_perf, "PERF run every workload in smoke mode with this perf.exe");
      ("--golden-dir", Arg.Set_string golden, "DIR snapshots for --smoke (default test/golden)");
    ]
    (fun d -> dirs := !dirs @ [ d ])
    "compare.exe [--bench FILE] DIR | BASE NEW | --smoke PERF";
  let bench = load_bench !bench_file in
  match (!smoke_perf, !dirs) with
  | "", [ d ] -> spread_table bench (read_set d)
  | "", [ a; b ] -> gate bench (read_set a) (read_set b)
  | p, [] when p <> "" -> smoke bench p !golden
  | _ -> fail "give one result set, two, or --smoke PERF"
