(* htvmc — the HTVM command-line compiler driver.

   Subcommands:
     export    write an MLPerf Tiny zoo model to a .htvm file
     inspect   print a model's graph and statistics
     compile   compile a model for a DIANA configuration; optionally emit C
     run       compile and execute on the simulated SoC
     profile   compile + run with tracing on; write a Perfetto-loadable trace
     check     differential conformance fuzzing with automatic shrinking;
               also records the golden snapshots (--bless)
     chaos     fuzzing under randomized fault-injection campaigns
     serve     batched inference serving on a fleet of simulated SoCs

   Examples:
     htvmc export resnet8 --policy mixed -o resnet8.htvm
     htvmc inspect resnet8.htvm
     htvmc compile resnet8.htvm --config both --emit-c resnet8.c
     htvmc run resnet8.htvm --config both
     htvmc run resnet8.htvm --config both --inject seed=42,dma_in@every=5:drop
     htvmc run resnet8.htvm --config both --degrade diana_analog
     htvmc profile resnet8.htvm --config both --trace out.json
     htvmc report resnet8.htvm --config both --json
     htvmc check --seeds 500 -j 4
     htvmc check --replay-seed 173
     htvmc check --bless
     htvmc chaos --seeds 300 -j 4
     htvmc chaos --replay-seed 57
     htvmc serve resnet8.htvm --config both --workers 4 --batch 8 --requests 64
     htvmc serve resnet8.htvm --arrival poisson --queue-depth 4 --inject \
       seed=9,dma_in@every=40:flip --degrade-after 3

   Every subcommand is a check and an action. The check is one cmdliner
   term, built from shared flag groups, that turns the command line into
   one config or a refusal; it reads input files but writes nothing. The
   action runs only on a config, so no store is opened, no model
   compiled and no file written for a refused command line. *)

open Cmdliner
open Term.Syntax

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  n = 0 || go 0

(* The one way htvmc fails: a single `htvmc: <msg>` line on stderr and
   exit 1. A refused command line reaches it from [command]; failures of
   the work itself (a compile error, an unrecovered fault, a mismatch)
   call it where they happen. *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "htvmc: %s\n" msg;
      exit 1)
    fmt

let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf Result.error fmt

(* A subcommand: [check] yields the checked config or the refusal, and
   [action] runs only on the former. *)
let command name ~doc check action =
  Cmd.v (Cmd.info name ~doc)
    Term.(const (function Ok cfg -> action cfg | Error msg -> die "%s" msg) $ check)

(* An integer flag refused below [min]: a count the command would
   otherwise reinterpret (a budget acting as 0, an empty seed range). *)
let at_least min flag n =
  if n >= min then Ok n else fail "--%s must be >= %d (got %d)" flag min n

let count_arg names ~default ~doc =
  Term.(const (at_least 0 (List.hd names))
        $ Arg.(value & opt int default & info names ~docv:"N" ~doc))

let load_graph path =
  match Ir.Text.load path with Ok g -> g | Error e -> die "cannot load %s: %s" path e

(* The library defaults read HTVM_JOBS eagerly; a malformed value is a
   refusal here instead of an uncaught Invalid_argument. *)
let config_of_name name =
  try
    match name with
    | "cpu" -> Ok (Htvm.Compile.tvm_baseline_config Arch.Diana.cpu_only)
    | "digital" -> Ok (Htvm.Compile.default_config Arch.Diana.digital_only)
    | "analog" -> Ok (Htvm.Compile.default_config Arch.Diana.analog_only)
    | "both" -> Ok (Htvm.Compile.default_config Arch.Diana.platform)
    | other -> fail "unknown config %S (cpu|digital|analog|both)" other
  with Invalid_argument msg -> Error msg

(* An explicit --jobs N forces N. Otherwise HTVM_JOBS applies, capped at
   the machine's recommended domain count (an ambient default inherited
   from a beefier box must not oversubscribe this one), falling back to
   that count when unset. The engine is deterministic at every job
   count, so this is purely a compile-speed knob. *)
let resolve_jobs = function
  | None -> (
      try Ok (Util.Pool.jobs_from_env ~default:(Util.Pool.available ()) ())
      with Invalid_argument msg -> Error msg)
  | Some n -> at_least 1 "jobs" n

let compile_or_die ?trace ?metrics ?store cfg g =
  match Htvm.Compile.compile ?trace ?metrics ?store cfg g with
  | Ok a -> a
  | Error e -> die "compilation failed: %s" (Htvm.Compile.error_to_string e)

(* Every result file (--tally/--metrics/--trace-out/--json/...) goes
   through here: the atomic temp+rename write means an interrupted run
   can never leave a truncated file for downstream diffs to misread. *)
let write_file path contents =
  try Util.File.write_atomic path contents with Sys_error e -> die "cannot write %s" e

(* Write [contents] to the optional result file, announcing the write. *)
let write_result path contents =
  Option.iter
    (fun p ->
      write_file p contents;
      Printf.printf "wrote %s\n" p)
    path

(* --- target group: MODEL.htvm, --config, --jobs --- *)

type target = { path : string; compile : Htvm.Compile.config }

let path_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL.htvm")
let config_arg =
  Arg.(value & opt string "digital" & info [ "config"; "c" ] ~doc:"cpu|digital|analog|both")
let jobs_arg =
  (* HTVM_JOBS is resolved by hand in [resolve_jobs] rather than via
     Cmd.Env: cmdliner would fold the variable into the flag's value,
     and the cap below applies only to the ambient default — an explicit
     --jobs N must still force N. *)
  Arg.(value & opt (some int) None
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains for the compilation engine (tiling solves and \
                 autotune trials); must be >= 1 and is taken as given. When \
                 absent, $(b,HTVM_JOBS) applies, capped at the machine's \
                 recommended domain count; then that count itself. \
                 Compilation results are bit-identical at every job count.")

let target_term =
  let+ path = path_arg and+ config = config_arg and+ jobs = jobs_arg in
  let* cfg = config_of_name config in
  let* jobs = resolve_jobs jobs in
  Ok { path; compile = { cfg with Htvm.Compile.jobs } }

(* --- cache group: --cache, --cache-dir, --no-cache --- *)

let cache_arg =
  Arg.(value & flag
       & info [ "cache" ]
           ~doc:"Read and write the persistent compilation store (default \
                 $(b,~/.cache/htvm), see $(b,--cache-dir)). Warm compiles \
                 are byte-identical to cold ones; corrupt entries are \
                 recomputed, never served.")
let cache_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Persistent-store directory (implies $(b,--cache)).")
let no_cache_arg =
  Arg.(value & flag
       & info [ "no-cache" ]
           ~doc:"Disable the persistent store even if $(b,--cache) or \
                 $(b,--cache-dir) is given.")

(* The store root, if any. Default off: runs without a cache flag behave
   exactly as before. --cache-dir implies --cache; --no-cache wins over
   both (so a script can append it to override an aliased default). *)
let cache_term =
  let+ cache = cache_arg and+ cache_dir = cache_dir_arg and+ no_cache = no_cache_arg in
  if no_cache then None
  else
    match cache_dir with
    | Some _ -> cache_dir
    | None -> if cache then Some (Store.default_root ()) else None

(* Opened only by an action, so after every check has passed. An empty
   root, or one that cannot be opened (a regular file, no permission),
   exits 1 with one line. *)
let open_store root =
  try Store.open_root root with Sys_error e -> die "cannot open cache: %s" e

(* Store traffic counters ride the cycles track next to the compile
   counters. Call this after the compiles and before any serve run (the
   serve report snapshots the registry itself). *)
let export_store_metrics reg store =
  match (reg, store) with
  | Some reg, Some st ->
      let c name help v = Metrics.inc (Metrics.counter reg ~help name) v in
      c "htvm_store_hits_total" "Persistent-store lookups served from disk."
        (Store.hits st);
      c "htvm_store_misses_total" "Persistent-store lookups finding no entry."
        (Store.misses st);
      c "htvm_store_rejects_total"
        "Persistent-store entries failing verified replay (recomputed)."
        (Store.rejects st);
      c "htvm_store_evictions_total" "Persistent-store entries evicted by GC."
        (Store.evictions st)
  | _ -> ()

let print_store_summary = function
  | None -> ()
  | Some st ->
      Printf.printf "store: hits=%d misses=%d rejects=%d dir=%s\n"
        (Store.hits st) (Store.misses st) (Store.rejects st) (Store.root st)

(* --- metrics group: --metrics, --metrics-format --- *)

type metrics = { metrics_out : string option; metrics_format : Metrics.format }

(* The format is checked whether or not --metrics asks for a dump. *)
let metrics_term =
  let+ metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Write a metrics dump here (counters, gauges, histograms, \
                   per-window series). Cycle-domain metrics are byte-identical \
                   at any $(b,--workers)/$(b,--jobs); host wall-clock gauges \
                   live in a separate track rendered last.")
  and+ format =
    Arg.(value & opt string "prom"
         & info [ "metrics-format" ] ~docv:"FMT"
             ~doc:"Metrics dump format: $(b,prom) (Prometheus text), \
                   $(b,json) or $(b,csv).")
  in
  let* metrics_format = Metrics.format_of_string format in
  Ok { metrics_out; metrics_format }

(* A registry is only allocated when --metrics names a file, so runs
   without the flag skip instrumentation entirely (the null sink). *)
let metrics_registry m = Option.map (fun _ -> Metrics.create ()) m.metrics_out

let write_metrics m snapshot =
  Option.iter
    (fun path ->
      write_file path (Metrics.render m.metrics_format snapshot);
      Printf.printf "wrote %s (%d metrics)\n" path (List.length snapshot))
    m.metrics_out

(* Per-request simulator counters and fault-session stats, exported via
   the canonical field enumerations. *)
let export_sim_metrics reg (totals : Sim.Counters.t) session =
  List.iter
    (fun (name, v) ->
      Metrics.inc
        (Metrics.counter reg
           ~help:("Simulator counter " ^ name ^ ".")
           ("htvm_sim_" ^ name ^ "_total"))
        v)
    (Sim.Counters.fields totals);
  match session with
  | None -> ()
  | Some s ->
      List.iter
        (fun (name, v) ->
          Metrics.inc
            (Metrics.counter reg
               ~help:("Fault-session stat " ^ name ^ ".")
               ("htvm_fault_" ^ name ^ "_total"))
            v)
        (Fault.Session.stats_fields (Fault.Session.stats s))

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event JSON (Perfetto-loadable) here.")

(* When --trace names a file, collect events and write Chrome trace-event
   JSON there on exit (load it at https://ui.perfetto.dev). *)
let with_trace trace_out f =
  match trace_out with
  | None -> f None
  | Some path ->
      let t = Trace.create () in
      let r = f (Some t) in
      write_file path (Trace.to_chrome_json t);
      Printf.printf "wrote %s (%d trace events)\n" path (List.length (Trace.events t));
      r

(* --- faults group: --inject, --faults, --retry-budget --- *)

(* The --retry-budget of every command that takes it, when absent. *)
let default_retry_budget = 3

(* A negative budget would act as 0: a guard aborts once a fault's
   attempts exceed the budget. [None] when the flag is absent, so
   multi-tenant [serve], which models no faults, can refuse it rather
   than ignore it. *)
let retry_budget_given =
  let+ n =
    Arg.(value & opt (some int) None
         & info [ "retry-budget" ] ~docv:"N"
             ~absent:(string_of_int default_retry_budget)
             ~doc:"Detected-fault retries allowed per operation before \
                   the modeled runtime aborts the inference; must be \
                   >= 0.")
  in
  match n with Some n when n < 0 -> fail "--retry-budget must be >= 0 (got %d)" n | n -> Ok n

let retry_budget_arg =
  let+ n = retry_budget_given in
  Result.map (Option.value ~default:default_retry_budget) n

type faults = {
  inject : string option;
  faults_file : string option;
  plan : Fault.Plan.t option;
      (** "none" (or an empty spec) is an explicit empty campaign: a
          session is still threaded through the simulator — and is a
          strict no-op. *)
  retry_budget : int option;
}

let faults_term =
  let+ inject =
    Arg.(value & opt (some string) None
         & info [ "inject" ] ~docv:"SPEC"
             ~doc:"Run under a fault-injection campaign, e.g. \
                   $(b,seed=42,dma_in@every=5:drop,l2@nth=3:flip). \
                   $(b,none) is an explicit empty campaign (a strict no-op).")
  and+ faults_file =
    Arg.(value & opt (some string) None
         & info [ "faults" ] ~docv:"FILE"
             ~doc:"Load the fault plan from FILE (same grammar as \
                   $(b,--inject), one or more rules per line).")
  and+ retry_budget = retry_budget_given in
  let* retry_budget = retry_budget in
  let* plan =
    match (inject, faults_file) with
    | Some _, Some _ -> fail "--inject and --faults are mutually exclusive"
    | Some spec, None -> (
        match Fault.Plan.of_string spec with
        | Ok p -> Ok (Some p)
        | Error e -> fail "bad --inject spec: %s" e)
    | None, Some path -> (
        match Fault.Plan.load path with
        | Ok p -> Ok (Some p)
        | Error e -> fail "cannot load fault file %s: %s" path e)
    | None, None -> Ok None
  in
  Ok { inject; faults_file; plan; retry_budget }

let print_fault_summary = function
  | None -> ()
  | Some s ->
      let st = Fault.Session.stats s in
      Printf.printf
        "faults: %d injected (%d detected, %d silent), %d retry(ies) costing \
         %d cycles, %d stall cycles\n"
        st.Fault.Session.injected st.Fault.Session.detected
        st.Fault.Session.silent st.Fault.Session.retries
        st.Fault.Session.retry_cycles st.Fault.Session.stall_cycles

let print_demotions (artifact : Htvm.Compile.artifact) =
  List.iter
    (fun (d : Htvm.Compile.demotion) ->
      Printf.printf "demoted %s: %s -> %s (%s)\n" d.Htvm.Compile.d_layer
        d.Htvm.Compile.d_from d.Htvm.Compile.d_to
        (Htvm.Compile.demotion_reason_to_string d.Htvm.Compile.d_reason))
    artifact.Htvm.Compile.demotions

let no_plan_arg =
  Arg.(value & flag
       & info [ "no-plan" ]
           ~doc:"Execute on the slow interpretive simulator path instead of \
                 the artifact's compiled execution plan. Outputs, cycle \
                 counts, traces and injected-fault effects are \
                 byte-identical either way (the slow path is the \
                 conformance oracle). The plan also serves fault-injected \
                 runs, L2 bit rot included.")

let json_out_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE" ~doc:"Write the JSON report here.")

let tally_out_arg =
  Arg.(value & opt (some string) None
       & info [ "tally" ] ~docv:"FILE"
           ~doc:"Write the canonical tally here (byte-identical across \
                 worker and job counts for a fixed seed).")

(* --- export, export-float, inspect --- *)

let export_cmd =
  let check =
    let+ model = Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL")
    and+ policy =
      Arg.(value & opt string "int8" & info [ "policy"; "p" ] ~doc:"int8|ternary|mixed")
    and+ out = Arg.(value & opt string "model.htvm" & info [ "o" ] ~doc:"Output path.") in
    let* entry =
      try Ok (Models.Zoo.find model)
      with Not_found ->
        fail "unknown model %S; known: %s" model
          (String.concat ", " (List.map (fun e -> e.Models.Zoo.model_name) Models.Zoo.all))
    in
    let* policy =
      match policy with
      | "int8" -> Ok Models.Policy.All_int8
      | "ternary" -> Ok Models.Policy.All_ternary
      | "mixed" -> Ok Models.Policy.Mixed
      | other -> fail "unknown policy %S (int8|ternary|mixed)" other
    in
    Ok (entry, policy, out)
  in
  command "export" ~doc:"Export a zoo model to a .htvm file" check
    (fun (entry, policy, out) ->
      let g = entry.Models.Zoo.build policy in
      Ir.Text.save out g;
      Printf.printf "wrote %s (%d ops, %.2f M MACs)\n" out (Ir.Graph.app_count g)
        (float_of_int (Models.Zoo.macs g) /. 1.0e6))

let export_float_cmd =
  let check =
    let+ which = Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL")
    and+ out = Arg.(value & opt string "model.fhtvm" & info [ "o" ] ~doc:"Output path.") in
    match which with
    | "small-cnn" -> Ok (Quant.Fmodel.random_cnn, out)
    | "dae-mlp" -> Ok (Quant.Fmodel.random_mlp, out)
    | other -> fail "unknown float model %S (small-cnn|dae-mlp)" other
  in
  command "export-float" ~doc:"Write a sample float model to a .fhtvm file" check
    (fun (build, out) ->
      Quant.Ftext.save out (build ());
      Printf.printf "wrote %s\n" out)

let inspect_cmd =
  let check =
    let+ path = path_arg
    and+ verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the full graph.") in
    Ok (path, verbose)
  in
  command "inspect" ~doc:"Print a model's statistics" check (fun (path, verbose) ->
      let g = load_graph path in
      Printf.printf "%s: %d nodes, %d ops, %.2f M MACs\n" path (Ir.Graph.length g)
        (Ir.Graph.app_count g)
        (float_of_int (Models.Zoo.macs g) /. 1.0e6);
      List.iter
        (fun (_, name, dtype, shape) ->
          Printf.printf "input %s : %s[%s]\n" name
            (Tensor.Dtype.to_string dtype)
            (Array.to_list shape |> List.map string_of_int |> String.concat "x"))
        (Ir.Graph.inputs g);
      let ty = Ir.Infer.output_ty g in
      Format.printf "output : %a@." Ir.Infer.pp_ty ty;
      if verbose then print_string (Ir.Graph.to_string g ^ "\n"))

(* --- compile --- *)

let compile_cmd =
  let check =
    let+ target = target_term
    and+ emit_c =
      Arg.(value & opt (some string) None & info [ "emit-c" ] ~doc:"Write generated C here.")
    and+ trace_out = trace_arg
    and+ cache = cache_term in
    let* target = target in
    Ok (target, emit_c, trace_out, cache)
  in
  command "compile" ~doc:"Compile a model for DIANA" check
    (fun (t, emit_c, trace_out, cache) ->
      let g = load_graph t.path in
      let store = Option.map open_store cache in
      let artifact =
        with_trace trace_out (fun trace -> compile_or_die ?trace ?store t.compile g)
      in
      Printf.printf "compiled %s for %s\n" t.path
        t.compile.Htvm.Compile.platform.Arch.Platform.platform_name;
      List.iter
        (fun (li : Htvm.Compile.layer_info) ->
          Printf.printf "  [%s] %s%s\n" li.Htvm.Compile.li_target li.Htvm.Compile.li_desc
            (if li.Htvm.Compile.li_tiled then " (tiled)" else ""))
        artifact.Htvm.Compile.layers;
      Format.printf "%a@." Codegen.Size.pp artifact.Htvm.Compile.size;
      Printf.printf "L2: %d B weights resident, %d B activation arena\n"
        artifact.Htvm.Compile.l2_static_bytes artifact.Htvm.Compile.l2_arena_bytes;
      Printf.printf "artifact digest: %s\n" (Htvm.Compile.artifact_digest artifact);
      print_store_summary store;
      write_result emit_c artifact.Htvm.Compile.c_source)

(* --- run and profile: one compile, one inference, one metrics dump --- *)

type exec = {
  target : target;
  seed : int;
  faults : faults;
  use_plan : bool;
  metrics : metrics;
  cache : string option;
  trace_out : string option;
}

let exec_term =
  let+ target = target_term
  and+ seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Input seed.")
  and+ trace_out = trace_arg
  and+ faults = faults_term
  and+ degrade =
    Arg.(value & opt_all string []
         & info [ "degrade" ] ~docv:"TARGET"
             ~doc:"Treat accelerator TARGET as degraded: the compiler's \
                   fallback ladder re-lowers its segments to the next-best \
                   target. Repeatable.")
  and+ no_plan = no_plan_arg
  and+ metrics = metrics_term
  and+ cache = cache_term in
  let* target = target in
  let* faults = faults in
  let* metrics = metrics in
  let compile = { target.compile with Htvm.Compile.degraded_targets = degrade } in
  Ok
    { target = { target with compile }; seed; faults; use_plan = not no_plan; metrics;
      cache; trace_out }

type executed = {
  artifact : Htvm.Compile.artifact;
  out : Tensor.t;
  exact : bool;  (** bit-exact vs the reference interpreter *)
  report : Sim.Machine.report;
  session : Fault.Session.t option;
  store : Store.t option;
  reg : Metrics.t option;
}

(* Compile and run one inference on seeded inputs. A fault that outlives
   the retry budget ends the command here. *)
let execute ?trace (x : exec) g =
  let session = Option.map Fault.Session.create x.faults.plan in
  let reg = metrics_registry x.metrics in
  let store = Option.map open_store x.cache in
  let artifact = compile_or_die ?trace ?metrics:reg ?store x.target.compile g in
  print_demotions artifact;
  let inputs = Models.Zoo.random_input ~seed:x.seed g in
  let retry_budget = Option.value ~default:default_retry_budget x.faults.retry_budget in
  match
    Htvm.Compile.run ?trace ?faults:session ~retry_budget ~use_plan:x.use_plan artifact
      ~inputs
  with
  | exception Fault.Session.Unrecovered { site; attempts } ->
      print_fault_summary session;
      die "inference aborted: fault at %s persisted past the retry budget (%d attempts)"
        site attempts
  | out, report ->
      let exact = Tensor.equal out (Ir.Eval.run g ~inputs) in
      { artifact; out; exact; report; session; store; reg }

let export_exec_metrics (x : exec) e =
  Option.iter
    (fun reg ->
      export_sim_metrics reg e.report.Sim.Machine.totals e.session;
      export_store_metrics (Some reg) e.store;
      write_metrics x.metrics (Metrics.snapshot reg))
    e.reg

let run_cmd =
  command "run" ~doc:"Compile and simulate a model" exec_term (fun x ->
      let g = load_graph x.target.path in
      let e = with_trace x.trace_out (fun trace -> execute ?trace x g) in
      let cfg = x.target.compile in
      Printf.printf "bit-exact vs interpreter: %b\n" e.exact;
      print_fault_summary e.session;
      let full = Htvm.Compile.full_cycles e.report in
      let peak = Htvm.Compile.peak_cycles e.report in
      Printf.printf "latency: %.3f ms (peak %.3f ms) at %d MHz — %d cycles\n"
        (Htvm.Compile.latency_ms cfg full)
        (Htvm.Compile.latency_ms cfg peak)
        cfg.Htvm.Compile.platform.Arch.Platform.freq_mhz full;
      Printf.printf "output: %s\n" (Tensor.to_string e.out);
      print_store_summary e.store;
      export_exec_metrics x e)

let profile_cmd =
  let check =
    let+ x = exec_term
    and+ json_out =
      Arg.(value & opt (some string) None
           & info [ "json" ] ~docv:"FILE" ~doc:"Also write the JSON report here.")
    in
    Result.map (fun x -> (x, json_out)) x
  in
  command "profile" ~doc:"Compile and simulate with tracing on; print a profile summary"
    check (fun (x, json_out) ->
      let g = load_graph x.target.path in
      let cfg = x.target.compile in
      let trace = Trace.create () in
      let e = execute ~trace x g in
      let silent =
        match e.session with
        | Some s -> (Fault.Session.stats s).Fault.Session.silent
        | None -> 0
      in
      if not e.exact then
        if silent > 0 then
          Printf.printf
            "output diverged from the reference (%d silent fault(s) injected)\n" silent
        else die "profiled run diverged from the reference interpreter";
      print_fault_summary e.session;
      let totals = e.report.Sim.Machine.totals in
      Printf.printf "profiled %s on %s (%d steps, %d trace events)\n" x.target.path
        cfg.Htvm.Compile.platform.Arch.Platform.platform_name
        (List.length e.report.Sim.Machine.per_step)
        (List.length (Trace.events trace));
      Printf.printf "wall: %d cycles (%.3f ms) — accel %d, wload %d, dma %d+%d, host %d, cpu %d, stall %d\n"
        totals.Sim.Counters.wall
        (Htvm.Compile.latency_ms cfg totals.Sim.Counters.wall)
        totals.Sim.Counters.accel_compute totals.Sim.Counters.weight_load
        totals.Sim.Counters.dma_in totals.Sim.Counters.dma_out
        totals.Sim.Counters.host_overhead totals.Sim.Counters.cpu_compute
        totals.Sim.Counters.stall;
      Printf.printf "dma traffic: %d B in, %d B out; utilization %.1f%%\n"
        totals.Sim.Counters.dma_bytes_in totals.Sim.Counters.dma_bytes_out
        (100.0 *. Sim.Counters.utilization totals);
      print_newline ();
      print_string (Trace.summary trace);
      print_store_summary e.store;
      Option.iter
        (fun p ->
          write_file p (Trace.to_chrome_json trace);
          Printf.printf "wrote %s (open in https://ui.perfetto.dev)\n" p)
        x.trace_out;
      export_exec_metrics x e;
      write_result json_out (Htvm.Report.to_json e.artifact e.report ^ "\n"))

(* --- report, verify --- *)

let report_cmd =
  let check =
    let+ target = target_term
    and+ out =
      Arg.(value & opt (some string) None & info [ "o" ] ~doc:"Write the report here.")
    and+ json =
      Arg.(value & flag
           & info [ "json" ] ~doc:"Emit the machine-readable JSON report instead of markdown.")
    in
    Result.map (fun t -> (t, out, json)) target
  in
  command "report" ~doc:"Compile, simulate and print a deployment report" check
    (fun (t, out, json) ->
      let g = load_graph t.path in
      let artifact = compile_or_die t.compile g in
      let run_report = snd (Htvm.Compile.run artifact ~inputs:(Models.Zoo.random_input g)) in
      let doc =
        if json then Htvm.Report.to_json artifact run_report ^ "\n"
        else Htvm.Report.to_markdown artifact run_report
      in
      match out with None -> print_string doc | Some _ -> write_result out doc)

let verify_cmd =
  let check =
    let+ target = target_term
    and+ trials =
      Term.(const (at_least 1 "trials")
            $ Arg.(value & opt int 10
                   & info [ "trials"; "n" ] ~doc:"Random inputs to check; must be >= 1."))
    in
    let* t = target in
    let* trials = trials in
    Ok (t, trials)
  in
  command "verify"
    ~doc:"Differentially verify the compiled artifact against the interpreter" check
    (fun (t, trials) ->
      let g = load_graph t.path in
      let artifact = compile_or_die t.compile g in
      let failures = ref 0 in
      for seed = 1 to trials do
        let inputs = Models.Zoo.random_input ~seed g in
        let out, _ = Htvm.Compile.run artifact ~inputs in
        if not (Tensor.equal out (Ir.Eval.run g ~inputs)) then begin
          incr failures;
          Printf.printf "seed %d: MISMATCH\n" seed
        end
      done;
      if !failures = 0 then
        Printf.printf "verified: %d random inputs bit-exact vs the reference interpreter\n"
          trials
      else begin
        Printf.printf "%d/%d inputs mismatched\n" !failures trials;
        exit 1
      end)

(* --- quantize --- *)

let quantize_cmd =
  let check =
    let+ path = path_arg
    and+ ternary = Arg.(value & flag & info [ "ternary" ] ~doc:"Ternarize conv weights.")
    and+ samples =
      Term.(const (at_least 1 "samples")
            $ Arg.(value & opt int 8
                   & info [ "samples" ] ~doc:"Calibration samples; must be >= 1."))
    and+ out = Arg.(value & opt string "model.htvm" & info [ "o" ] ~doc:"Output path.") in
    Result.map (fun samples -> (path, ternary, samples, out)) samples
  in
  command "quantize" ~doc:"Post-training quantize a .fhtvm float model" check
    (fun (path, ternary, samples, out) ->
      match Quant.Ftext.load path with
      | Error e -> die "cannot load float model %s: %s" path e
      | Ok model -> (
          let rng = Util.Rng.create 1 in
          let calibration =
            List.init samples (fun _ ->
                Quant.Ftensor.random rng model.Quant.Fmodel.f_input_shape)
          in
          match Quant.Quantize.quantize ~ternary ~calibration model with
          | Error e -> die "quantization failed: %s" e
          | Ok (g, meta) ->
              Ir.Text.save out g;
              Printf.printf
                "wrote %s (%d ops; input scale %gx, output scale %gx, %s weights)\n" out
                (Ir.Graph.app_count g) meta.Quant.Quantize.input_scale
                meta.Quant.Quantize.output_scale
                (if ternary then "ternary" else "int8")))

(* --- check and chaos: differential fuzzing --- *)

(* The flags check and chaos share; only their docs differ. *)
type fuzz = {
  seeds : int;
  start : int;
  fuzz_jobs : int;
  replay_seed : int option;
  repro : string;
  max_checks : int;
}

let fuzz_term ~seeds_doc ~replay_doc ~repro_default ~repro_doc =
  let+ seeds = count_arg [ "seeds"; "n" ] ~default:100 ~doc:seeds_doc
  and+ start =
    Arg.(value & opt int 0 & info [ "start" ] ~docv:"S" ~doc:"First seed of the range.")
  and+ jobs = jobs_arg
  and+ replay_seed =
    Arg.(value & opt (some int) None & info [ "replay-seed" ] ~docv:"SEED" ~doc:replay_doc)
  and+ repro =
    Arg.(value & opt string repro_default & info [ "o"; "repro" ] ~docv:"FILE" ~doc:repro_doc)
  and+ max_checks =
    (* A negative budget would act as 0. *)
    count_arg [ "max-shrink-checks" ] ~default:400
      ~doc:"Budget of failure-predicate re-checks for the shrinker; must be >= 0."
  in
  let* seeds = seeds in
  (* The range [start, start + seeds) must end inside the ints, or it
     wraps round to negative seeds. *)
  let* () =
    if start > max_int - seeds then
      fail "--start + --seeds must be <= %d (got %d + %d)" max_int start seeds
    else Ok ()
  in
  let* max_checks = max_checks in
  let* fuzz_jobs = resolve_jobs jobs in
  Ok { seeds; start; fuzz_jobs; replay_seed; repro; max_checks }

(* Minimize a failing case and write the replayable reproducer. A chaos
   case is shrunk under the fault plan it failed with, and its
   reproducer's header embeds that plan. *)
let shrink_and_write ?faults ?retry_budget (z : fuzz) seed verdict =
  let g = Check.Gen.generate seed in
  let cfg =
    if faults = None then Check.Gen.random_config seed else Check.Gen.chaos_config seed
  in
  Printf.printf "shrinking %sseed %d (class %s) ...\n%!"
    (if faults = None then "" else "chaos ")
    seed (Check.class_of verdict);
  let o =
    Check.Shrink.shrink_failure ~max_checks:z.max_checks ~input_seed:seed ?faults
      ?retry_budget cfg g verdict
  in
  Printf.printf "minimized: %d -> %d ops (%d reductions, %d re-checks)\n"
    (Ir.Graph.app_count g)
    (Ir.Graph.app_count o.Check.Shrink.graph)
    o.Check.Shrink.accepted o.Check.Shrink.checks;
  let verdict =
    Check.run_case ~input_seed:seed ?faults ?retry_budget o.Check.Shrink.config
      o.Check.Shrink.graph
  in
  write_file z.repro
    (Check.reproducer ?faults ~seed ~config:o.Check.Shrink.config
       ~graph:o.Check.Shrink.graph ~verdict ());
  Printf.printf "wrote %s%s — minimized verdict: %s\n" z.repro
    (if faults = None then "" else " (fault plan embedded)")
    (Check.describe verdict)

(* Run one seed; a failure is shrunk and exits 1. *)
let replay_one ~run ~shrink seed =
  let verdict = run seed in
  Printf.printf "seed %d: %s\n" seed (Check.describe verdict);
  if Check.is_failure verdict then begin
    shrink seed verdict;
    exit 1
  end

(* Fuzz the range [start, start + seeds): print the per-class tally,
   hand it to [on_tally], list every failure and shrink the first, which
   exits 1. *)
let fuzz_range ~name ~noun ?(note = "") ?run ?(on_tally = ignore) ~shrink (z : fuzz) =
  Printf.printf "%s: seeds [%d, %d) on %d job%s%s\n%!" name z.start (z.start + z.seeds)
    z.fuzz_jobs
    (if z.fuzz_jobs = 1 then "" else "s")
    note;
  let cases =
    Check.fuzz ~jobs:z.fuzz_jobs ?run
      ~progress:(fun ~completed ~total ->
        Printf.printf "\r  %d/%d %s%!" completed total noun)
      ~start:z.start ~count:z.seeds ()
  in
  print_newline ();
  let tally = Check.tally cases in
  List.iter (fun (cls, n) -> Printf.printf "  %-24s %d\n" cls n) tally;
  on_tally tally;
  let failures = List.filter (fun c -> Check.is_failure c.Check.verdict) cases in
  List.iter
    (fun c -> Printf.printf "seed %d: %s\n" c.Check.seed (Check.describe c.Check.verdict))
    failures;
  match Check.first_failure cases with
  | None -> Printf.printf "%s: %d %s, no failures\n" name z.seeds noun
  | Some c ->
      Printf.printf "%s: %d of %d %s FAILED\n" name (List.length failures) z.seeds noun;
      shrink c.Check.seed c.Check.verdict;
      exit 1

let bless_goldens golden_dir =
  List.iter
    (fun (model, config) ->
      match Check.Golden.compute ~model ~config with
      | Error e -> die "%s" e
      | Ok entry ->
          Check.Golden.bless ~dir:golden_dir entry;
          Printf.printf "blessed %s/%s\n%!" golden_dir
            (Check.Golden.filename ~model ~config))
    Check.Golden.cases;
  Printf.printf "blessed %d golden snapshots\n" (List.length Check.Golden.cases)

let check_cmd =
  let check =
    let+ z =
      fuzz_term ~seeds_doc:"Number of fuzz seeds to run; must be >= 0."
        ~replay_doc:"Run exactly one fuzz case (from a reproducer header) instead \
                     of a range."
        ~repro_default:"htvm-repro.htvm"
        ~repro_doc:"Where to write the minimized reproducer on failure."
    and+ golden_dir =
      Arg.(value & opt string "test/golden"
           & info [ "golden-dir" ] ~docv:"DIR" ~doc:"Golden snapshot directory.")
    and+ bless =
      Arg.(value & flag
           & info [ "bless" ]
               ~doc:"Re-record the golden snapshots (model zoo x deployment \
                     configs) instead of fuzzing.")
    in
    Result.map (fun z -> (z, golden_dir, bless)) z
  in
  command "check"
    ~doc:"Differential conformance check: fuzz random (graph, config) cases \
          against the reference interpreter, auto-shrink the first failure \
          to a minimal reproducer; --bless records golden snapshots"
    check (fun (z, golden_dir, bless) ->
      let shrink = shrink_and_write z in
      if bless then bless_goldens golden_dir
      else
        match z.replay_seed with
        | Some seed -> replay_one ~run:Check.run_seed ~shrink seed
        | None -> fuzz_range ~name:"check" ~noun:"cases" ~shrink z)

let chaos_cmd =
  let check =
    let+ z =
      fuzz_term ~seeds_doc:"Number of chaos campaigns to run; must be >= 0."
        ~replay_doc:"Replay exactly one chaos campaign (from a reproducer \
                     header) instead of a range."
        ~repro_default:"htvm-chaos-repro.htvm"
        ~repro_doc:"Where to write the minimized reproducer (fault plan \
                    embedded) on failure."
    and+ retry_budget = retry_budget_arg
    and+ metrics = metrics_term in
    let* z = z in
    let* retry_budget = retry_budget in
    let* metrics = metrics in
    Ok (z, retry_budget, metrics)
  in
  command "chaos"
    ~doc:"Fuzz under randomized fault-injection campaigns: each seed pairs \
          a random case with a random recoverable fault plan; any \
          detected-uncorrected or silent-corruption verdict fails and is \
          shrunk to a replayable reproducer"
    check (fun (z, retry_budget, metrics) ->
      let run = Check.run_chaos_seed ~retry_budget in
      let shrink seed =
        shrink_and_write ~faults:(Check.Gen.random_fault_plan seed) ~retry_budget z seed
      in
      match z.replay_seed with
      | Some seed ->
          Printf.printf "seed %d: plan %s\n" seed
            (Fault.Plan.to_string (Check.Gen.random_fault_plan seed));
          replay_one ~run ~shrink seed
      | None ->
          let on_tally tally =
            Option.iter
              (fun reg ->
                Metrics.inc
                  (Metrics.counter reg ~help:"Chaos campaigns run."
                     "htvm_chaos_campaigns_total")
                  z.seeds;
                List.iter
                  (fun (cls, n) ->
                    Metrics.inc
                      (Metrics.counter reg
                         ~labels:[ ("class", cls) ]
                         ~help:"Chaos campaign verdicts by class."
                         "htvm_chaos_verdicts_total")
                      n)
                  tally;
                write_metrics metrics (Metrics.snapshot reg))
              (metrics_registry metrics)
          in
          fuzz_range ~name:"chaos" ~noun:"campaigns"
            ~note:(Printf.sprintf " (retry budget %d)" retry_budget)
            ~run ~on_tally ~shrink z)

(* --- serve and campaign: the fleet and health groups --- *)

(* The ten fleet flags of `serve` and `campaign`, parsed by one term so
   their names, defaults and docs cannot drift apart. The numbers are
   checked by the serving library's validators. *)
type fleet = {
  workers : int;
  batch : int;
  queue_depth : int;
  requests : int;
  fleet_seed : int;
  arrival : string;
  gap : int;
  window : int;
  overhead : int;
  slo_sojourn : int option;
}

(* Campaigns default to Poisson arrivals so shedding has meaning. *)
let fleet_term ~arrival_default =
  let+ workers =
    Arg.(value & opt int Serve.default.Serve.workers
         & info [ "workers"; "w" ] ~docv:"N"
             ~doc:"Fleet size: independent simulated SoC instances. Tallies \
                   are byte-identical at any value.")
  and+ batch =
    Arg.(value & opt int Serve.default.Serve.max_batch
         & info [ "batch"; "b" ] ~docv:"N"
             ~doc:"Maximum requests per dispatched batch; in multi-tenant \
                   mode 0 = autotune against the dispatch overhead.")
  and+ queue_depth =
    Arg.(value & opt int Serve.default.Serve.queue_depth
         & info [ "queue-depth" ] ~docv:"N"
             ~doc:"Ingress buffer capacity per dispatch window; requests \
                   arriving into a full window are shed (open loop).")
  and+ requests =
    Arg.(value & opt int Serve.default.Serve.requests
         & info [ "requests"; "n" ] ~docv:"N"
             ~doc:"Synthetic requests to generate (per rate point in a \
                   campaign).")
  and+ fleet_seed =
    Arg.(value & opt int Serve.default.Serve.seed
         & info [ "seed" ] ~docv:"S"
             ~doc:"Seeds the arrival process and every request payload. The \
                   per-request tally is bit-identical at any $(b,--workers) \
                   and $(b,--jobs) for a fixed seed.")
  and+ arrival =
    Arg.(value & opt string arrival_default
         & info [ "arrival" ] ~docv:"MODE"
             ~doc:"$(b,closed) (saturating backlog, the throughput experiment) \
                   or $(b,poisson) (open loop with exponential gaps); \
                   multi-tenant serving adds $(b,diurnal) (gap mean sweeps \
                   peak-to-trough over --period) and $(b,bursty) (--burst \
                   requests at a time).")
  and+ gap =
    Arg.(value & opt int 0
         & info [ "gap" ] ~docv:"CYCLES"
             ~doc:"Mean Poisson inter-arrival gap in cycles, >= 0; 0 = auto \
                   (half a request's fault-free service cycles, read from the \
                   plan; the slowest model's when serving several).")
  and+ window =
    Arg.(value & opt int 0
         & info [ "window" ] ~docv:"CYCLES"
             ~doc:"Dispatch window length in cycles (open loop), >= 0; 0 = \
                   auto (a request's fault-free service cycles, read from the \
                   plan).")
  and+ overhead =
    Arg.(value & opt int Serve.default.Serve.dispatch_overhead
         & info [ "dispatch-overhead" ] ~docv:"CYCLES"
             ~doc:"Cycles charged once per dispatched batch (>= 0).")
  and+ slo_sojourn =
    Arg.(value & opt (some int) None
         & info [ "slo-sojourn" ] ~docv:"CYCLES"
             ~doc:"Sojourn (arrival-to-completion) SLO target in cycles. \
                   Violations are counted against the predicted \
                   queueing-free sojourn (worker-invariant, in the tally) \
                   and against the observed sojourn (fleet-dependent, \
                   report only).")
  in
  { workers; batch; queue_depth; requests; fleet_seed; arrival; gap; window; overhead;
    slo_sojourn }

(* The optional health-lifecycle config shared by `serve` and `campaign`.
   [enable] is the command's on/off term (`--health` for serve,
   `--no-health` for campaign, which defaults to on). The 0 / -1
   defaults are the auto sentinels Serve resolves against a request's
   fault-free service cycles, read from the plan. *)
let health_term enable =
  let+ enabled = enable
  and+ fault_threshold =
    Arg.(value & opt int Health.default.Health.fault_threshold
         & info [ "health-threshold" ] ~docv:"N"
             ~doc:"Faults accumulated during one healthy tenure before an \
                   instance degrades.")
  and+ probation_window =
    Arg.(value & opt int 0
         & info [ "probation" ] ~docv:"CYCLES"
             ~doc:"Base cooldown between degrading and the first health \
                   probe, >= 0; escalates exponentially on relapse. 0 = auto \
                   (twice a request's fault-free service cycles, read from \
                   the plan).")
  and+ probe_interval =
    Arg.(value & opt int (-1)
         & info [ "probe-interval" ] ~docv:"CYCLES"
             ~doc:"Idle gap between probes while on probation, >= -1; 0 = \
                   back-to-back, -1 = auto (a quarter of a request's \
                   fault-free service cycles).")
  and+ probe_cost =
    Arg.(value & opt int 0
         & info [ "probe-cost" ] ~docv:"CYCLES"
             ~doc:"Cycles each health probe occupies the probed instance, \
                   >= 0; 0 = auto (a tenth of a request's fault-free service \
                   cycles).")
  and+ pass_threshold =
    Arg.(value & opt int Health.default.Health.pass_threshold
         & info [ "probe-passes" ] ~docv:"N"
             ~doc:"Consecutive probe passes required for readmission.")
  and+ backoff_cap =
    Arg.(value & opt int 0
         & info [ "health-cap" ] ~docv:"CYCLES"
             ~doc:"Ceiling for the escalated probation cooldown, >= 0; 0 = \
                   auto (eight probation windows).")
  and+ probe_fail_prob =
    Arg.(value & opt float Health.default.Health.probe_fail_prob
         & info [ "probe-fail" ] ~docv:"P"
             ~doc:"Per-probe Bernoulli failure probability (seeded, \
                   deterministic).")
  and+ probe_seed =
    Arg.(value & opt int Health.default.Health.probe_seed
         & info [ "health-seed" ] ~docv:"S"
             ~doc:"Base seed for the per-instance probe-outcome streams.")
  in
  if not enabled then None
  else
    Some
      {
        Health.fault_threshold;
        probation_window;
        probe_interval;
        probe_cost;
        pass_threshold;
        backoff_cap;
        probe_fail_prob;
        probe_seed;
      }

(* The single-tenant serve config the fleet flags describe. *)
let serve_config f ~jobs ~use_plan ~retry_budget ~health =
  let* arrival =
    match f.arrival with
    | "closed" -> Ok Serve.Closed
    | "poisson" -> Ok (Serve.Poisson { mean_gap = f.gap })
    | other -> fail "unknown arrival process %S (closed|poisson)" other
  in
  Ok
    {
      Serve.default with
      Serve.workers = f.workers;
      max_batch = f.batch;
      queue_depth = f.queue_depth;
      requests = f.requests;
      seed = f.fleet_seed;
      arrival;
      window = f.window;
      dispatch_overhead = f.overhead;
      retry_budget;
      jobs;
      slo_sojourn = f.slo_sojourn;
      use_plan;
      health;
    }

let serve_error r = Result.map_error Serve.mt_error_to_string r

(* The serve-family output path: the summary on stdout, then the metrics
   dump and each requested result file, announcing every write. *)
let write_results ~summary metrics snapshot files =
  print_string summary;
  write_metrics metrics snapshot;
  List.iter (fun (path, render) -> if path <> None then write_result path (render ())) files

let json_text j = Trace.Json.to_string j ^ "\n"

(* --- serve --- *)

(* The flags that switch serve into multi-tenant mode, or only apply
   there. The latter are [None] when absent, so single-tenant serve can
   refuse them rather than ignore them. *)
type tenancy = {
  model_flags : string list;
  class_flags : string list;
  placement : string option;
  swap_overhead : int option;
  period : int option;
  burst : int option;
  replay : string option;
  arrival_trace_out : string option;
}

let default_placement = "swap"
let default_period = 0
let default_burst = 4

let tenancy_term =
  let+ model_flags =
    Arg.(value & opt_all string []
         & info [ "model" ] ~docv:"NAME=PATH"
             ~doc:"Register an additional model (repeatable). The positional \
                   MODEL.htvm is always registered as $(b,main). Any --model \
                   or --class flag switches serve into multi-tenant mode.")
  and+ class_flags =
    Arg.(value & opt_all string []
         & info [ "class" ] ~docv:"NAME=MODEL[:SLO[:WEIGHT]]"
             ~doc:"Define a request class (repeatable): which registered \
                   model it runs, an optional per-class sojourn SLO in \
                   cycles (0 = none; requests whose predicted sojourn \
                   exceeds it are shed), and its share of synthetic traffic \
                   (default weight 1).")
  and+ placement =
    Arg.(value & opt (some' ~none:default_placement string) None
         & info [ "placement" ] ~docv:"MODE"
             ~doc:"$(b,swap) (any instance serves any batch, paying \
                   --swap-overhead per model change) or $(b,pinned) \
                   (instance i permanently hosts model i mod n; needs \
                   workers >= distinct models).")
  and+ swap_overhead =
    Arg.(value & opt (some' ~none:Serve.mt_default.Serve.mt_swap_overhead int) None
         & info [ "swap-overhead" ] ~docv:"CYCLES"
             ~doc:"Model reload cost when an instance switches models.")
  and+ period =
    Arg.(value & opt (some' ~none:default_period int) None
         & info [ "period" ] ~docv:"CYCLES"
             ~doc:"Diurnal arrival period; 0 = auto (8 dispatch windows).")
  and+ burst =
    Arg.(value & opt (some' ~none:default_burst int) None
         & info [ "burst" ] ~docv:"N"
             ~doc:"Requests per burst for $(b,--arrival bursty).")
  and+ replay =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Replay a recorded arrival trace (cycles, classes, payload \
                   seeds) instead of generating arrivals; implies \
                   multi-tenant mode and requires matching --class flags.")
  and+ arrival_trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Record the run's arrival stream in the replayable \
                   $(b,htvm-serve-trace v1) format (multi-tenant mode).")
  in
  { model_flags; class_flags; placement; swap_overhead; period; burst; replay;
    arrival_trace_out }

(* Parse --model NAME=PATH. *)
let parse_model_flag s =
  match String.index_opt s '=' with
  | Some i when i > 0 && i < String.length s - 1 ->
      Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | _ -> fail "bad --model %S (expected NAME=PATH)" s

(* Parse --class NAME=MODEL[:SLO[:WEIGHT]]; SLO 0 means none. *)
let parse_class_flag s =
  let bad = fail "bad --class %S (expected NAME=MODEL[:SLO[:WEIGHT]])" s in
  let slo t = if t = 0 then None else Some t in
  match String.index_opt s '=' with
  | Some i when i > 0 && i < String.length s - 1 -> (
      let k_name = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let spec =
        match String.split_on_char ':' rest with
        | [ m ] -> Some (m, None, 1)
        | [ m; t ] -> Option.map (fun t -> (m, slo t, 1)) (int_of_string_opt t)
        | [ m; t; w ] -> (
            match (int_of_string_opt t, int_of_string_opt w) with
            | Some t, Some w -> Some (m, slo t, w)
            | _ -> None)
        | _ -> None
      in
      match spec with
      | Some (k_model, k_slo, k_weight) -> Ok { Serve.k_name; k_model; k_slo; k_weight }
      | None -> bad)
  | _ -> bad

let rec all = function
  | [] -> Ok []
  | r :: rest ->
      let* x = r in
      let* xs = all rest in
      Ok (x :: xs)

type serve_mode =
  | Single of Serve.config
  | Multi of {
      models : (string * string) list;  (** registry name, model path *)
      classes : Serve.model_class list;
      mt : Serve.mt_config;
    }

type serve = {
  serve_target : target;
  mode : serve_mode;
  serve_cache : string option;
  serve_metrics : metrics;
  chrome_trace : string option;
  json_out : string option;
  tally_out : string option;
  arrival_trace : string option;
}

(* The multi-tenant serve path: a model registry (the positional
   artifact is model "main", --model adds more), per-class SLOs, and a
   fleet that pins or hot-swaps models. The single-model knobs tenancy
   does not model are refused rather than silently ignored. *)
let multi_tenant path (t : tenancy) f ~health ~jobs ~use_plan ~degraded ~refused =
  let* () =
    match List.find_opt fst refused with
    | Some (_, flag) -> fail "%s is not supported with --model/--class/--replay" flag
    | None -> Ok ()
  in
  let* models = all (List.map parse_model_flag t.model_flags) in
  let models = ("main", path) :: models in
  let* classes = all (List.map parse_class_flag t.class_flags) in
  let* mt_arrival =
    match t.replay with
    | Some file ->
        Result.map (fun e -> Serve.Mt_replay e) (serve_error (Serve.load_arrival_trace file))
    | None -> (
        match f.arrival with
        | "closed" -> Ok Serve.Mt_closed
        | "poisson" -> Ok (Serve.Mt_poisson { mean_gap = f.gap })
        | "diurnal" ->
            let period = Option.value ~default:default_period t.period in
            Ok (Serve.Mt_diurnal { mean_gap = f.gap; period })
        | "bursty" ->
            let burst = Option.value ~default:default_burst t.burst in
            Ok (Serve.Mt_bursty { mean_gap = f.gap; burst })
        | other -> fail "unknown arrival process %S (closed|poisson|diurnal|bursty)" other)
  in
  let* mt_placement =
    match Option.value ~default:default_placement t.placement with
    | "pinned" -> Ok Serve.Pinned
    | "swap" -> Ok Serve.Swap
    | other -> fail "unknown placement %S (pinned|swap)" other
  in
  let mt =
    {
      Serve.mt_workers = f.workers;
      mt_max_batch = f.batch;
      mt_queue_depth = f.queue_depth;
      mt_requests = f.requests;
      mt_seed = f.fleet_seed;
      mt_arrival;
      mt_window = f.window;
      mt_dispatch_overhead = f.overhead;
      mt_swap_overhead =
        Option.value ~default:Serve.mt_default.Serve.mt_swap_overhead t.swap_overhead;
      mt_placement;
      mt_jobs = jobs;
      mt_use_plan = use_plan;
      mt_degraded_instances = degraded;
      mt_health = health;
    }
  in
  let* () = serve_error (Serve.mt_validate mt ~models:(List.map fst models) ~classes) in
  Ok (Multi { models; classes; mt })

let serve_term =
  let+ target = target_term
  and+ f = fleet_term ~arrival_default:"closed"
  and+ faults = faults_term
  and+ degrade_after =
    Arg.(value & opt (some int) None
         & info [ "degrade-after" ] ~docv:"N"
             ~doc:"Route around an instance once the requests it served have \
                   reported N faults (detected + silent); must be >= 1.")
  and+ degraded =
    Arg.(value & opt_all int []
         & info [ "degraded" ] ~docv:"ID"
             ~doc:"Instance id degraded from cycle 0 (repeatable). Ids must \
                   be distinct and in [0, workers). With $(b,--health) the \
                   instance walks the probation/readmission lifecycle; \
                   without it it stays out of rotation for the whole run.")
  and+ health =
    health_term
      Arg.(value & flag
           & info [ "health" ]
               ~doc:"Enable the per-instance health lifecycle: degraded \
                     instances re-enter probation after a cooldown, run \
                     seeded probes (each costing cycles on the probed \
                     instance) and are readmitted to the rotation after \
                     consecutive passes. Mutually exclusive with \
                     $(b,--degrade-after).")
  and+ no_plan = no_plan_arg
  and+ memoize =
    Arg.(value & flag
         & info [ "memoize" ]
             ~doc:"Reuse one execution across requests with identical input \
                   digests (deduplicated before the worker fan-out). \
                   Requires a fault-free run; the tally is byte-identical \
                   with and without it, only hit/miss telemetry and wall \
                   time move.")
  and+ input_mix =
    Arg.(value & opt int Serve.default.Serve.input_mix
         & info [ "input-mix" ] ~docv:"K"
             ~doc:"Fold per-request input seeds into a pool of K distinct \
                   payloads (0 = every request unique, the default). \
                   Arrival times are unaffected. Gives $(b,--memoize) \
                   something to hit.")
  and+ tenancy = tenancy_term
  and+ trace_out = trace_arg
  and+ json_out = json_out_arg
  and+ tally_out = tally_out_arg
  and+ metrics = metrics_term
  and+ cache = cache_term in
  let* target = target in
  let* faults = faults in
  let* metrics = metrics in
  let jobs = target.compile.Htvm.Compile.jobs and use_plan = not no_plan in
  let* mode =
    if tenancy.model_flags <> [] || tenancy.class_flags <> [] || tenancy.replay <> None
    then
      multi_tenant target.path tenancy f ~health ~jobs ~use_plan ~degraded
        ~refused:
          [
            (faults.inject <> None, "--inject");
            (faults.faults_file <> None, "--faults");
            (degrade_after <> None, "--degrade-after");
            (f.slo_sojourn <> None, "--slo-sojourn (use per-class SLOs)");
            (faults.retry_budget <> None, "--retry-budget");
            (memoize, "--memoize");
            (input_mix <> 0, "--input-mix");
          ]
    else
      match
        List.find_opt fst
          [
            (tenancy.arrival_trace_out <> None, "--trace-out");
            (tenancy.placement <> None, "--placement");
            (tenancy.swap_overhead <> None, "--swap-overhead");
            (tenancy.period <> None, "--period");
            (tenancy.burst <> None, "--burst");
          ]
      with
      | Some (_, flag) -> fail "%s requires --class (multi-tenant mode)" flag
      | None when f.arrival = "diurnal" || f.arrival = "bursty" ->
          fail "arrival %S needs multi-tenant mode (add --class)" f.arrival
      | None ->
          let retry_budget =
            Option.value ~default:default_retry_budget faults.retry_budget
          in
          let* scfg = serve_config f ~jobs ~use_plan ~retry_budget ~health in
          let scfg =
            {
              scfg with
              Serve.plan = Option.value ~default:Fault.Plan.empty faults.plan;
              degrade_after;
              degraded_instances = degraded;
              memoize;
              input_mix;
            }
          in
          let* () = serve_error (Serve.validate scfg) in
          Ok (Single scfg)
  in
  Ok
    {
      serve_target = target;
      mode;
      serve_cache = cache;
      serve_metrics = metrics;
      chrome_trace = trace_out;
      json_out;
      tally_out;
      arrival_trace = tenancy.arrival_trace_out;
    }

let serve (s : serve) =
  let cfg = s.serve_target.compile in
  let platform = cfg.Htvm.Compile.platform.Arch.Platform.platform_name in
  match s.mode with
  | Single scfg ->
      let g = load_graph s.serve_target.path in
      let store = Option.map open_store s.serve_cache in
      (* One registry spans compile and serve, so a single --metrics dump
         carries the wall-clock compile phases alongside the cycle-domain
         serving telemetry (in separate tracks). *)
      let reg = metrics_registry s.serve_metrics in
      let artifact = compile_or_die ?metrics:reg ?store cfg g in
      export_store_metrics reg store;
      (* Serve.validate passed before the compile; what Serve.run still
         refuses needs the plan (a health cap below the auto probation
         window). *)
      let report =
        try
          with_trace s.chrome_trace (fun trace ->
              Serve.run ?trace ?metrics:reg scfg artifact ~graph:g)
        with Invalid_argument msg -> die "%s" msg
      in
      Printf.printf "serving %s on %s x%d\n" s.serve_target.path platform
        scfg.Serve.workers;
      print_store_summary store;
      write_results ~summary:(Serve.summary report) s.serve_metrics report.Serve.r_metrics
        [
          (s.tally_out, fun () -> Serve.tally report);
          (s.json_out, fun () -> json_text (Serve.to_json report));
        ]
  | Multi { models; classes; mt } -> (
      let graphs = List.map (fun (name, p) -> (name, load_graph p)) models in
      let store = Option.map open_store s.serve_cache in
      (* Fleet warmup: every model compiles through the shared store, so
         a registry that was compiled anywhere before — or earlier in
         this list — comes out of the artifact tier, and fresh models
         still share layer-tier solves with each other. *)
      let models =
        List.map
          (fun (name, g) ->
            { Serve.m_name = name; m_artifact = compile_or_die ?store cfg g; m_graph = g })
          graphs
      in
      (* Unlike the single-model path the registry is serve-only: the
         compile-side metrics register strictly, and compiling several
         models into one registry would collide. *)
      let reg = metrics_registry s.serve_metrics in
      (* Before mt_run: the report snapshots the registry itself, and
         store traffic stops accruing once the fleet is compiled. *)
      export_store_metrics reg store;
      match
        with_trace s.chrome_trace (fun trace ->
            Serve.mt_run ?trace ?metrics:reg mt ~models ~classes)
      with
      | Error e -> die "%s" (Serve.mt_error_to_string e)
      | Ok report ->
          Printf.printf "serving %d model(s), %d class(es) on %s x%d\n"
            (List.length models) (List.length classes) platform mt.Serve.mt_workers;
          print_store_summary store;
          write_results ~summary:(Serve.mt_summary report) s.serve_metrics
            report.Serve.mt_metrics
            [
              (s.arrival_trace, fun () -> Serve.render_arrival_trace report);
              (s.tally_out, fun () -> Serve.mt_tally report);
              (s.json_out, fun () -> json_text (Serve.mt_to_json report));
            ])

let serve_cmd =
  command "serve"
    ~doc:"Serve a seeded synthetic request stream on a fleet of simulated \
          SoC instances: windowed admission with shedding, batched \
          dispatch, routing around degraded instances, latency/throughput \
          aggregation. With --model/--class, a multi-tenant fleet hosting \
          several artifacts under per-class latency SLOs."
    serve_term serve

(* --- campaign: fault-rate sweep under sustained load --- *)

let parse_rates s =
  let parts =
    List.filter (fun p -> p <> "") (List.map String.trim (String.split_on_char ',' s))
  in
  let* rates =
    all
      (List.map
         (fun p ->
           match float_of_string_opt p with
           | Some f -> Ok f
           | None -> fail "bad --rates entry %S (expected a float)" p)
         parts)
  in
  if rates = [] then fail "--rates must name at least one fault rate" else Ok rates

let campaign_cmd =
  let check =
    let+ target = target_term
    and+ f = fleet_term ~arrival_default:"poisson"
    and+ retry_budget = retry_budget_arg
    and+ no_plan = no_plan_arg
    and+ health =
      health_term
        Term.(const not
              $ Arg.(value & flag
                     & info [ "no-health" ]
                         ~doc:"Disable the health lifecycle (campaigns default \
                               to running it, so readmission counts appear in \
                               the curve)."))
    and+ rates =
      Arg.(value & opt string "0.002,0.01,0.05"
           & info [ "rates" ] ~docv:"P,P,..."
               ~doc:"Comma-separated fault injection probabilities to sweep, \
                     each in [0, 1].")
    and+ c_site =
      Arg.(value & opt string "dma_in"
           & info [ "site" ] ~docv:"SITE"
               ~doc:"Fault site to inject at (plan grammar: dma_in, dma_out, \
                     weight_load, compute[=ENGINE], l1, l2).")
    and+ c_kind =
      Arg.(value & opt string "flip"
           & info [ "fault-kind" ] ~docv:"KIND"
               ~doc:"Fault kind per injection (plan grammar: flip[=BIT], drop, \
                     stall=CYCLES).")
    and+ c_fault_seed =
      Arg.(value & opt int 7
           & info [ "fault-seed" ] ~docv:"S"
               ~doc:"Seed shared by every generated fault plan.")
    and+ json_out = json_out_arg
    and+ tally_out = tally_out_arg
    and+ metrics = metrics_term in
    let* t = target in
    let* retry_budget = retry_budget in
    let* metrics = metrics in
    let* c_serve =
      serve_config f ~jobs:t.compile.Htvm.Compile.jobs ~use_plan:(not no_plan)
        ~retry_budget ~health
    in
    let* c_rates = parse_rates rates in
    let ccfg = { Campaign.c_serve; c_rates; c_site; c_kind; c_fault_seed } in
    let* () = Campaign.validate ccfg in
    Ok (t, ccfg, metrics, json_out, tally_out)
  in
  command "campaign"
    ~doc:"Sustained chaos-under-load campaign: sweep a fault site's \
          injection probability across rate points, serving the full \
          request stream at each, and report SLO-violation / shed-rate / \
          readmission curves. The health lifecycle is on by default so \
          degraded instances re-enter rotation mid-run."
    check (fun (t, ccfg, metrics, json_out, tally_out) ->
      let g = load_graph t.path in
      let reg = metrics_registry metrics in
      let artifact = compile_or_die ?metrics:reg t.compile g in
      match Campaign.run ?metrics:reg ccfg artifact ~graph:g with
      | Error msg -> die "%s" msg
      | Ok c ->
          Printf.printf "campaign %s on %s x%d\n" t.path
            t.compile.Htvm.Compile.platform.Arch.Platform.platform_name
            ccfg.Campaign.c_serve.Serve.workers;
          write_results ~summary:(Campaign.summary c) metrics
            (Metrics.snapshot (Option.value reg ~default:(Metrics.create ())))
            [
              (tally_out, fun () -> Campaign.tally c);
              (json_out, fun () -> json_text (Campaign.to_json c));
            ])

(* --- dot --- *)

let dot_cmd =
  let check =
    let+ path = path_arg
    and+ config =
      Arg.(value & opt (some string) None
           & info [ "config"; "c" ] ~doc:"Color offloaded regions for this config.")
    and+ out = Arg.(value & opt (some string) None & info [ "o" ] ~doc:"Write DOT here.") in
    match config with
    | None -> Ok (path, None, out)
    | Some name -> Result.map (fun cfg -> (path, Some cfg, out)) (config_of_name name)
  in
  command "dot" ~doc:"Export a model as Graphviz DOT" check (fun (path, cfg, out) ->
      let g = load_graph path in
      let highlight =
        match cfg with
        | None -> fun _ -> None
        | Some cfg ->
            let simplified = Ir.Rewrite.simplify g in
            let plan =
              Byoc.Partition.run simplified
                ~targets:
                  (List.map
                     (fun (a : Arch.Accel.t) ->
                       {
                         Byoc.Partition.name = a.Arch.Accel.accel_name;
                         patterns = Byoc.Library.all;
                         accept = a.Arch.Accel.supports;
                         priority = 1;
                         estimate = None;
                       })
                     cfg.Htvm.Compile.platform.Arch.Platform.accels)
            in
            let color_of = Hashtbl.create 16 in
            List.iter
              (fun seg ->
                match seg with
                | Byoc.Partition.Offload { target; output; _ } ->
                    let color =
                      if contains target "analog" then "lightsalmon" else "lightblue"
                    in
                    List.iter
                      (fun p -> Hashtbl.replace color_of p color)
                      (Byoc.Partition.segment_inputs simplified seg @ [ output ])
                | Byoc.Partition.Host _ -> ())
              plan.Byoc.Partition.segments;
            fun id -> Hashtbl.find_opt color_of id
      in
      let src = Ir.Dot.to_dot ~highlight g in
      match out with None -> print_string src | Some _ -> write_result out src)

(* --- cache: persistent-store maintenance --- *)

let human_bytes n =
  if n >= 1_048_576 then Printf.sprintf "%.1f MiB" (float_of_int n /. 1048576.0)
  else if n >= 1024 then Printf.sprintf "%.1f KiB" (float_of_int n /. 1024.0)
  else Printf.sprintf "%d B" n

type cache_action = Stats | Verify | Gc of int

let cache_cmd =
  let check =
    let+ action =
      Arg.(value & pos 0 string "stats"
           & info [] ~docv:"ACTION"
               ~doc:"$(b,stats) (inventory per tier), $(b,verify) (re-check \
                     every entry's header and digest, deleting invalid ones) \
                     or $(b,gc) (LRU-by-mtime eviction down to \
                     $(b,--max-bytes)).")
    and+ cache_dir = cache_dir_arg
    and+ max_bytes =
      Arg.(value & opt (some int) None
           & info [ "max-bytes" ] ~docv:"N"
               ~doc:"Size cap for $(b,gc), >= 0: least-recently-used entries \
                     are evicted until the store fits.")
    in
    let root = match cache_dir with Some d -> d | None -> Store.default_root () in
    match (action, max_bytes) with
    | "stats", _ -> Ok (root, Stats)
    | "verify", _ -> Ok (root, Verify)
    | "gc", None -> fail "cache gc requires --max-bytes"
    | "gc", Some cap when cap < 0 -> fail "--max-bytes must be >= 0"
    | "gc", Some cap -> Ok (root, Gc cap)
    | other, _ -> fail "unknown cache action %S (stats|verify|gc)" other
  in
  command "cache"
    ~doc:"Inspect and maintain the persistent compilation store \
          (stats / verify / gc)."
    check (fun (root, action) ->
      let st = open_store root in
      match action with
      | Stats ->
          let es = Store.entries st in
          let count tier =
            List.filter (fun (e : Store.entry) -> e.Store.e_tier = tier) es
          in
          let layer = count Store.Layer and artifact = count Store.Artifact in
          Printf.printf "cache %s\n" root;
          Printf.printf "  layer: %d entr(ies), %s\n" (List.length layer)
            (human_bytes (Store.total_bytes layer));
          Printf.printf "  artifact: %d entr(ies), %s\n" (List.length artifact)
            (human_bytes (Store.total_bytes artifact));
          Printf.printf "  total: %d entr(ies), %s\n" (List.length es)
            (human_bytes (Store.total_bytes es));
          Store.write_index st
      | Verify ->
          let ok, removed = Store.verify st in
          Printf.printf "verified %d entr(ies): %d ok, %d rejected and removed\n"
            (ok + removed) ok removed
      | Gc cap ->
          let evicted = Store.gc st ~max_bytes:cap in
          let left = Store.entries st in
          Printf.printf
            "gc: evicted %d entr(ies); %d entr(ies), %s retained under a %s \
             cap\n"
            evicted (List.length left)
            (human_bytes (Store.total_bytes left))
            (human_bytes cap))

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "htvmc" ~version:"1.0"
             ~doc:"HTVM compiler driver for heterogeneous TinyML platforms")
          [ export_cmd; export_float_cmd; quantize_cmd; inspect_cmd; compile_cmd;
            run_cmd; profile_cmd; verify_cmd; check_cmd; chaos_cmd; serve_cmd;
            campaign_cmd; report_cmd; cache_cmd; dot_cmd ]))
