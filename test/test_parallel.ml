(* The engine determinism contract: parallel (jobs > 1) and pruned
   compilation must be behaviorally invisible — artifacts, report JSON
   and trace payloads byte-identical to a sequential run (and pruned
   search must choose the same tiles as exhaustive). *)

module C = Htvm.Compile

(* An 8 kB L1 forces the zoo's layers through the tiler, so the solver
   paths (pruning, fan-out) actually run. *)
let constrained platform =
  {
    platform with
    Arch.Platform.l1 = { Arch.Memory.level_name = "L1"; size_bytes = Util.Ints.kib 8 };
  }

let compile_exn cfg g =
  match C.compile cfg g with
  | Ok a -> a
  | Error e -> Alcotest.failf "compile failed: %s" (C.error_to_string e)

(* Everything deterministic about a trace: payloads modulo timestamps. *)
let event_payloads trace =
  List.map
    (fun (e : Trace.event) -> (e.Trace.ev_name, e.Trace.ev_cat, e.Trace.ev_args))
    (Trace.events trace)

let solve_payloads trace =
  List.filter (fun (n, _, _) -> n = "tiling.solve") (event_payloads trace)

let report_of g artifact =
  let _, r = C.run artifact ~inputs:(Models.Zoo.random_input g) in
  Htvm.Report.to_json artifact r

(* jobs=2/4 vs sequential, across the zoo: same C source, same report
   JSON, same tiling.solve trace payloads. *)
let test_zoo_parallel_identical () =
  List.iter
    (fun (e : Models.Zoo.entry) ->
      let g = e.Models.Zoo.build Models.Policy.Mixed in
      let base_cfg = C.default_config (constrained Arch.Diana.platform) in
      let trace_seq = Trace.create () in
      let seq = compile_exn { base_cfg with C.jobs = 1 } g in
      ignore (C.compile ~trace:trace_seq { base_cfg with C.jobs = 1 } g);
      List.iter
        (fun jobs ->
          let trace_par = Trace.create () in
          let cfg = { base_cfg with C.jobs } in
          let par = compile_exn cfg g in
          ignore (C.compile ~trace:trace_par cfg g);
          Alcotest.(check string)
            (Printf.sprintf "%s: c_source at jobs=%d" e.Models.Zoo.model_name jobs)
            seq.C.c_source par.C.c_source;
          Alcotest.(check string)
            (Printf.sprintf "%s: report JSON at jobs=%d" e.Models.Zoo.model_name jobs)
            (report_of g seq) (report_of g par);
          Alcotest.(check bool)
            (Printf.sprintf "%s: tiling.solve payloads at jobs=%d"
               e.Models.Zoo.model_name jobs)
            true
            (solve_payloads trace_seq = solve_payloads trace_par))
        [ 2; 4 ])
    Models.Zoo.all

(* Pruned search must reproduce exhaustive search bit-for-bit: same tiles,
   same objectives, same artifact — with fewer candidates tested. *)
let test_pruned_matches_exhaustive () =
  List.iter
    (fun (e : Models.Zoo.entry) ->
      let g = e.Models.Zoo.build Models.Policy.Mixed in
      let base = C.default_config (constrained Arch.Diana.platform) in
      let trace_ex = Trace.create () in
      let ex =
        compile_exn { base with C.exhaustive_tiling = true } g
      in
      ignore (C.compile ~trace:trace_ex { base with C.exhaustive_tiling = true } g);
      let trace_pr = Trace.create () in
      let pr = compile_exn base g in
      ignore (C.compile ~trace:trace_pr base g);
      Alcotest.(check string)
        (e.Models.Zoo.model_name ^ ": same C source")
        ex.C.c_source pr.C.c_source;
      let choices tr =
        List.map
          (fun (_, _, args) ->
            (List.assoc_opt "tile" args, List.assoc_opt "objective" args))
          (solve_payloads tr)
      in
      Alcotest.(check bool)
        (e.Models.Zoo.model_name ^ ": same tiles and objectives")
        true
        (choices trace_ex = choices trace_pr);
      Alcotest.(check bool)
        (e.Models.Zoo.model_name ^ ": pruning explores no more than exhaustive")
        true
        (pr.C.solver.C.ss_explored <= ex.C.solver.C.ss_explored))
    Models.Zoo.all

(* Fuzzed graphs and configs: whatever engine knobs the generator picked,
   forcing jobs=4 must not change the artifact. *)
let test_fuzz_graphs_identical () =
  for seed = 1 to 25 do
    let g = Check.Gen.generate seed in
    let cfg = Check.Gen.random_config seed in
    (* Vary only jobs: the report surfaces solver search totals, which
       (by design) differ between exhaustive and pruned search, so the
       exhaustive flag stays whatever the generator picked. *)
    let seq_cfg = { cfg with C.jobs = 1 } in
    let par_cfg = { cfg with C.jobs = 4 } in
    match (C.compile seq_cfg g, C.compile par_cfg g) with
    | Ok a, Ok b ->
        Alcotest.(check string)
          (Printf.sprintf "seed %d: c_source" seed)
          a.C.c_source b.C.c_source;
        Alcotest.(check string)
          (Printf.sprintf "seed %d: report" seed)
          (report_of g a) (report_of g b)
    | Error ea, Error eb ->
        Alcotest.(check string)
          (Printf.sprintf "seed %d: same error" seed)
          (C.error_to_string ea) (C.error_to_string eb)
    | Ok _, Error e | Error e, Ok _ ->
        Alcotest.failf "seed %d: engines disagree on compilability: %s" seed
          (C.error_to_string e)
  done

let suites =
  [ ( "parallel-engine",
      [ Alcotest.test_case "zoo: parallel+cache identical" `Slow
          test_zoo_parallel_identical;
        Alcotest.test_case "pruned = exhaustive choices" `Slow
          test_pruned_matches_exhaustive;
        Alcotest.test_case "fuzz: engines agree" `Slow test_fuzz_graphs_identical;
      ] )
  ]
