(* The engine determinism contract: parallel (jobs > 1) compilation
   must be behaviorally invisible — artifacts, report JSON and trace
   payloads byte-identical to a sequential run — and the pruned tiling
   search must find what the exhaustive one finds. *)

module C = Htvm.Compile

(* An 8 kB L1 forces the zoo's layers through the tiler, so the solver
   paths (pruning, fan-out) actually run. *)
let constrained ?(kib = 8) platform =
  {
    platform with
    Arch.Platform.l1 = { Arch.Memory.level_name = "L1"; size_bytes = Util.Ints.kib kib };
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

(* Pruned search must find what exhaustive search finds: the same
   result (tile and objective, or the same infeasibility) for every
   layer the partitioner offloads in the zoo and in fuzzed deployments,
   on every accelerator accepting it, with no more candidates tested. *)
let test_pruned_matches_exhaustive () =
  let infeasible = ref 0 in
  let check name (cfg : C.config) g =
    let platform = cfg.C.platform in
    let accels = platform.Arch.Platform.accels in
    let targets =
      List.map
        (fun (a : Arch.Accel.t) ->
          {
            Byoc.Partition.name = a.Arch.Accel.accel_name;
            patterns = Byoc.Library.all;
            accept = a.Arch.Accel.supports;
            priority = 0;
            estimate = None;
          })
        accels
    in
    let tiling =
      {
        Dory.Tiling.alpha = 1.0;
        use_pe_heuristics = cfg.C.use_pe_heuristics;
        use_dma_heuristic = cfg.C.use_dma_heuristic;
        double_buffer = cfg.C.double_buffer;
        l1_budget = platform.Arch.Platform.l1.Arch.Memory.size_bytes;
      }
    in
    List.iter
      (function
        | Byoc.Partition.Offload { layer; _ } ->
            List.iter
              (fun (accel : Arch.Accel.t) ->
                if accel.Arch.Accel.supports layer then begin
                  let what =
                    Printf.sprintf "%s: %s on %s" name (Ir.Layer.describe layer)
                      accel.Arch.Accel.accel_name
                  in
                  let pr = Dory.Tiling.solve_stats tiling accel layer in
                  let ex = Dory.Tiling.solve_stats ~exhaustive:true tiling accel layer in
                  if Result.is_error pr.Dory.Tiling.result then incr infeasible;
                  Alcotest.(check bool) (what ^ ": same result") true
                    (pr.Dory.Tiling.result = ex.Dory.Tiling.result);
                  Alcotest.(check bool) (what ^ ": explores no more") true
                    (pr.Dory.Tiling.stats.Dory.Tiling.explored
                    <= ex.Dory.Tiling.stats.Dory.Tiling.explored)
                end)
              accels
        | Byoc.Partition.Host _ -> ())
      (Byoc.Partition.run (Ir.Rewrite.simplify g) ~targets).Byoc.Partition.segments
  in
  (* At 1 kB of L1 some layers fit no tile at all. *)
  List.iter
    (fun (e : Models.Zoo.entry) ->
      List.iter
        (fun kib ->
          check
            (Printf.sprintf "%s at %d kB" e.Models.Zoo.model_name kib)
            (C.default_config (constrained ~kib Arch.Diana.platform))
            (e.Models.Zoo.build Models.Policy.Mixed))
        [ 8; 1 ])
    Models.Zoo.all;
  for seed = 1 to 25 do
    check (Printf.sprintf "seed %d" seed) (Check.Gen.random_config seed)
      (Check.Gen.generate seed)
  done;
  Alcotest.(check bool) "some layers have no feasible tile" true (!infeasible > 0)

(* Fuzzed graphs and configs: whatever engine knobs the generator picked,
   forcing jobs=4 must not change the artifact. *)
let test_fuzz_graphs_identical () =
  for seed = 1 to 25 do
    let g = Check.Gen.generate seed in
    let cfg = Check.Gen.random_config seed in
    (* Vary only jobs: everything else stays what the generator picked. *)
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
