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
       seed=9,dma_in@every=40:flip --degrade-after 3 *)

open Cmdliner

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  n = 0 || go 0

let load_graph path =
  match Ir.Text.load path with
  | Ok g -> g
  | Error e ->
      Printf.eprintf "htvmc: cannot load %s: %s\n" path e;
      exit 1

(* The library defaults read HTVM_JOBS eagerly; diagnose a malformed
   value here instead of surfacing an uncaught Invalid_argument. *)
let config_of_name name =
  try
    match name with
    | "cpu" -> Htvm.Compile.tvm_baseline_config Arch.Diana.cpu_only
    | "digital" -> Htvm.Compile.default_config Arch.Diana.digital_only
    | "analog" -> Htvm.Compile.default_config Arch.Diana.analog_only
    | "both" -> Htvm.Compile.default_config Arch.Diana.platform
    | other ->
        Printf.eprintf "htvmc: unknown config %S (cpu|digital|analog|both)\n" other;
        exit 1
  with Invalid_argument msg ->
    Printf.eprintf "htvmc: %s\n" msg;
    exit 1

(* An explicit --jobs N forces N. Otherwise HTVM_JOBS applies, capped at
   the machine's recommended domain count (an ambient default inherited
   from a beefier box must not oversubscribe this one), falling back to
   that count when unset. The engine is deterministic at every job
   count, so this is purely a compile-speed knob. *)
let resolve_jobs = function
  | None -> (
      try Util.Pool.jobs_from_env ~default:(Util.Pool.available ()) ()
      with Invalid_argument msg ->
        Printf.eprintf "htvmc: %s\n" msg;
        exit 1)
  | Some n when n >= 1 -> n
  | Some n ->
      Printf.eprintf "htvmc: --jobs must be >= 1 (got %d)\n" n;
      exit 1

let config_for name jobs =
  { (config_of_name name) with Htvm.Compile.jobs = resolve_jobs jobs }

let compile_or_die ?trace ?metrics ?store cfg g =
  match Htvm.Compile.compile ?trace ?metrics ?store cfg g with
  | Ok a -> a
  | Error e ->
      Printf.eprintf "htvmc: compilation failed: %s\n" (Htvm.Compile.error_to_string e);
      exit 1

(* Every result file (--tally/--metrics/--trace-out/--json/...) goes
   through here: the atomic temp+rename write means an interrupted run
   can never leave a truncated file for downstream diffs to misread. *)
let write_file path contents =
  try Util.File.write_atomic path contents
  with Sys_error e ->
    Printf.eprintf "htvmc: cannot write %s\n" e;
    exit 1

(* --- persistent store plumbing --- *)

(* Resolve --cache / --cache-dir DIR / --no-cache into an optional store
   handle. Default off: runs without a cache flag behave exactly as
   before. --cache-dir implies --cache; --no-cache wins over both (so a
   script can append it to override an aliased default). *)
let store_of_args cache cache_dir no_cache =
  if no_cache then None
  else
    match cache_dir with
    | Some dir -> Some (Store.open_root dir)
    | None -> if cache then Some (Store.open_root (Store.default_root ())) else None

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

(* --- metrics plumbing --- *)

let metrics_format_of fmt =
  match Metrics.format_of_string fmt with
  | Ok f -> f
  | Error e ->
      Printf.eprintf "htvmc: %s\n" e;
      exit 1

(* A registry is only allocated when --metrics names a file, so runs
   without the flag skip instrumentation entirely (the null sink). *)
let metrics_registry metrics_out =
  Option.map (fun _ -> Metrics.create ()) metrics_out

let write_metrics metrics_out fmt snapshot =
  match metrics_out with
  | None -> ()
  | Some path ->
      write_file path (Metrics.render (metrics_format_of fmt) snapshot);
      Printf.printf "wrote %s (%d metrics)\n" path (List.length snapshot)

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

(* --- fault-injection plumbing --- *)

(* Resolve --inject SPEC / --faults FILE into an optional plan. "none"
   (or an empty spec) is an explicit empty campaign: a session is still
   threaded through the simulator — and is a strict no-op. *)
let plan_of_args inject faults_file =
  match (inject, faults_file) with
  | Some _, Some _ ->
      Printf.eprintf "htvmc: --inject and --faults are mutually exclusive\n";
      exit 1
  | Some spec, None -> (
      match Fault.Plan.of_string spec with
      | Ok p -> Some p
      | Error e ->
          Printf.eprintf "htvmc: bad --inject spec: %s\n" e;
          exit 1)
  | None, Some path -> (
      match Fault.Plan.load path with
      | Ok p -> Some p
      | Error e ->
          Printf.eprintf "htvmc: cannot load fault file %s: %s\n" path e;
          exit 1)
  | None, None -> None

let degrade_config cfg = function
  | [] -> cfg
  | ts -> { cfg with Htvm.Compile.degraded_targets = ts }

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

(* --- export --- *)

let export model policy out =
  let entry =
    try Models.Zoo.find model
    with Not_found ->
      Printf.eprintf "htvmc: unknown model %S; known: %s\n" model
        (String.concat ", " (List.map (fun e -> e.Models.Zoo.model_name) Models.Zoo.all));
      exit 1
  in
  let policy =
    match policy with
    | "int8" -> Models.Policy.All_int8
    | "ternary" -> Models.Policy.All_ternary
    | "mixed" -> Models.Policy.Mixed
    | other ->
        Printf.eprintf "htvmc: unknown policy %S (int8|ternary|mixed)\n" other;
        exit 1
  in
  let g = entry.Models.Zoo.build policy in
  Ir.Text.save out g;
  Printf.printf "wrote %s (%d ops, %.2f M MACs)\n" out (Ir.Graph.app_count g)
    (float_of_int (Models.Zoo.macs g) /. 1.0e6)

(* --- inspect --- *)

let inspect path verbose =
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
  if verbose then print_string (Ir.Graph.to_string g ^ "\n")

(* --- compile --- *)

let compile path config jobs emit_c trace_out cache cache_dir no_cache =
  let g = load_graph path in
  let cfg = config_for config jobs in
  let store = store_of_args cache cache_dir no_cache in
  let artifact =
    with_trace trace_out (fun trace -> compile_or_die ?trace ?store cfg g)
  in
  Printf.printf "compiled %s for %s\n" path
    cfg.Htvm.Compile.platform.Arch.Platform.platform_name;
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
  match emit_c with
  | None -> ()
  | Some out ->
      write_file out artifact.Htvm.Compile.c_source;
      Printf.printf "wrote %s\n" out

(* --- run --- *)

let run path config jobs seed trace_out inject faults_file retry_budget degrade
    no_plan metrics_out metrics_format cache cache_dir no_cache =
  let g = load_graph path in
  let cfg = degrade_config (config_for config jobs) degrade in
  let session = Option.map Fault.Session.create (plan_of_args inject faults_file) in
  let reg = metrics_registry metrics_out in
  let store = store_of_args cache cache_dir no_cache in
  match
    with_trace trace_out (fun trace ->
        let artifact = compile_or_die ?trace ?metrics:reg ?store cfg g in
        print_demotions artifact;
        let inputs = Models.Zoo.random_input ~seed g in
        Htvm.Compile.run ?trace ?faults:session ~retry_budget
          ~use_plan:(not no_plan) artifact ~inputs)
  with
  | exception Fault.Session.Unrecovered { site; attempts } ->
      print_fault_summary session;
      Printf.eprintf
        "htvmc: inference aborted: fault at %s persisted past the retry \
         budget (%d attempts)\n"
        site attempts;
      exit 1
  | out, report ->
  let inputs = Models.Zoo.random_input ~seed g in
  let reference = Ir.Eval.run g ~inputs in
  Printf.printf "bit-exact vs interpreter: %b\n" (Tensor.equal out reference);
  print_fault_summary session;
  let full = Htvm.Compile.full_cycles report in
  let peak = Htvm.Compile.peak_cycles report in
  Printf.printf "latency: %.3f ms (peak %.3f ms) at %d MHz — %d cycles\n"
    (Htvm.Compile.latency_ms cfg full)
    (Htvm.Compile.latency_ms cfg peak)
    cfg.Htvm.Compile.platform.Arch.Platform.freq_mhz full;
  Printf.printf "output: %s\n" (Tensor.to_string out);
  print_store_summary store;
  match reg with
  | None -> ()
  | Some reg ->
      export_sim_metrics reg report.Sim.Machine.totals session;
      export_store_metrics (Some reg) store;
      write_metrics metrics_out metrics_format (Metrics.snapshot reg)

(* --- report --- *)

let report path config jobs out json =
  let g = load_graph path in
  let cfg = config_for config jobs in
  let artifact = compile_or_die cfg g in
  let run_report = snd (Htvm.Compile.run artifact ~inputs:(Models.Zoo.random_input g)) in
  let doc =
    if json then Htvm.Report.to_json artifact run_report ^ "\n"
    else Htvm.Report.to_markdown artifact run_report
  in
  match out with
  | None -> print_string doc
  | Some path ->
      write_file path doc;
      Printf.printf "wrote %s\n" path

(* --- profile --- *)

let profile path config jobs seed trace_out json_out inject faults_file
    retry_budget degrade no_plan metrics_out metrics_format cache cache_dir
    no_cache =
  let g = load_graph path in
  let cfg = degrade_config (config_for config jobs) degrade in
  let session = Option.map Fault.Session.create (plan_of_args inject faults_file) in
  let reg = metrics_registry metrics_out in
  let store = store_of_args cache cache_dir no_cache in
  let trace = Trace.create () in
  let artifact = compile_or_die ~trace ?metrics:reg ?store cfg g in
  print_demotions artifact;
  let inputs = Models.Zoo.random_input ~seed g in
  let out, report =
    try
      Htvm.Compile.run ~trace ?faults:session ~retry_budget
        ~use_plan:(not no_plan) artifact ~inputs
    with Fault.Session.Unrecovered { site; attempts } ->
      print_fault_summary session;
      Printf.eprintf
        "htvmc: inference aborted: fault at %s persisted past the retry \
         budget (%d attempts)\n"
        site attempts;
      exit 1
  in
  let silent =
    match session with
    | Some s -> (Fault.Session.stats s).Fault.Session.silent
    | None -> 0
  in
  if not (Tensor.equal out (Ir.Eval.run g ~inputs)) then
    if silent > 0 then
      Printf.printf
        "output diverged from the reference (%d silent fault(s) injected)\n"
        silent
    else begin
      Printf.eprintf "htvmc: profiled run diverged from the reference interpreter\n";
      exit 1
    end;
  print_fault_summary session;
  let totals = report.Sim.Machine.totals in
  Printf.printf "profiled %s on %s (%d steps, %d trace events)\n" path
    cfg.Htvm.Compile.platform.Arch.Platform.platform_name
    (List.length report.Sim.Machine.per_step)
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
  print_store_summary store;
  (match trace_out with
  | None -> ()
  | Some p ->
      write_file p (Trace.to_chrome_json trace);
      Printf.printf "wrote %s (open in https://ui.perfetto.dev)\n" p);
  (match reg with
  | None -> ()
  | Some reg ->
      export_sim_metrics reg totals session;
      export_store_metrics (Some reg) store;
      write_metrics metrics_out metrics_format (Metrics.snapshot reg));
  match json_out with
  | None -> ()
  | Some p ->
      write_file p (Htvm.Report.to_json artifact report ^ "\n");
      Printf.printf "wrote %s\n" p

(* --- quantize --- *)

let quantize path ternary samples out =
  match Quant.Ftext.load path with
  | Error e ->
      Printf.eprintf "htvmc: cannot load float model %s: %s\n" path e;
      exit 1
  | Ok model ->
      let rng = Util.Rng.create 1 in
      let calibration =
        List.init samples (fun _ ->
            Quant.Ftensor.random rng model.Quant.Fmodel.f_input_shape)
      in
      (match Quant.Quantize.quantize ~ternary ~calibration model with
      | Error e ->
          Printf.eprintf "htvmc: quantization failed: %s\n" e;
          exit 1
      | Ok (g, meta) ->
          Ir.Text.save out g;
          Printf.printf
            "wrote %s (%d ops; input scale %gx, output scale %gx, %s weights)\n" out
            (Ir.Graph.app_count g) meta.Quant.Quantize.input_scale
            meta.Quant.Quantize.output_scale
            (if ternary then "ternary" else "int8"))

let export_float which out =
  let model =
    match which with
    | "small-cnn" -> Quant.Fmodel.random_cnn ()
    | "dae-mlp" -> Quant.Fmodel.random_mlp ()
    | other ->
        Printf.eprintf "htvmc: unknown float model %S (small-cnn|dae-mlp)\n" other;
        exit 1
  in
  Quant.Ftext.save out model;
  Printf.printf "wrote %s\n" out

(* --- verify --- *)

let verify path config jobs trials =
  let g = load_graph path in
  let cfg = config_for config jobs in
  let artifact = compile_or_die cfg g in
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
  end

(* --- check --- *)

let bless_goldens golden_dir =
  List.iter
    (fun (model, config) ->
      match Check.Golden.compute ~model ~config with
      | Error e ->
          Printf.eprintf "htvmc: %s\n" e;
          exit 1
      | Ok entry ->
          Check.Golden.bless ~dir:golden_dir entry;
          Printf.printf "blessed %s/%s\n%!" golden_dir
            (Check.Golden.filename ~model ~config))
    Check.Golden.cases;
  Printf.printf "blessed %d golden snapshots\n" (List.length Check.Golden.cases)

(* Minimize a failing case and write the replayable reproducer. *)
let shrink_and_write ~max_checks ~out (c : Check.case) =
  let g = Check.Gen.generate c.Check.seed in
  let cfg = Check.Gen.random_config c.Check.seed in
  Printf.printf "shrinking seed %d (class %s) ...\n%!" c.Check.seed
    (Check.class_of c.Check.verdict);
  let o =
    Check.Shrink.shrink_failure ~max_checks ~input_seed:c.Check.seed cfg g
      c.Check.verdict
  in
  Printf.printf "minimized: %d -> %d ops (%d reductions, %d re-checks)\n"
    (Ir.Graph.app_count g)
    (Ir.Graph.app_count o.Check.Shrink.graph)
    o.Check.Shrink.accepted o.Check.Shrink.checks;
  let verdict =
    Check.run_case ~input_seed:c.Check.seed o.Check.Shrink.config o.Check.Shrink.graph
  in
  write_file out
    (Check.reproducer ~seed:c.Check.seed ~config:o.Check.Shrink.config
       ~graph:o.Check.Shrink.graph ~verdict ());
  Printf.printf "wrote %s — minimized verdict: %s\n" out (Check.describe verdict)

let check seeds start jobs golden_dir bless replay_seed out max_shrink_checks =
  if bless then bless_goldens golden_dir
  else
    match replay_seed with
    | Some seed ->
        let verdict = Check.run_seed seed in
        Printf.printf "seed %d: %s\n" seed (Check.describe verdict);
        if Check.is_failure verdict then begin
          shrink_and_write ~max_checks:max_shrink_checks ~out
            { Check.seed; verdict };
          exit 1
        end
    | None ->
        let jobs = resolve_jobs jobs in
        Printf.printf "check: seeds [%d, %d) on %d job%s\n%!" start (start + seeds)
          jobs
          (if jobs = 1 then "" else "s");
        let cases =
          Check.fuzz ~jobs
            ~progress:(fun ~completed ~total ->
              Printf.printf "\r  %d/%d cases%!" completed total)
            ~start ~count:seeds ()
        in
        print_newline ();
        List.iter
          (fun (cls, n) -> Printf.printf "  %-24s %d\n" cls n)
          (Check.tally cases);
        let failures =
          List.filter (fun c -> Check.is_failure c.Check.verdict) cases
        in
        List.iter
          (fun c ->
            Printf.printf "seed %d: %s\n" c.Check.seed (Check.describe c.Check.verdict))
          failures;
        (match Check.first_failure cases with
        | None -> Printf.printf "check: %d cases, no failures\n" seeds
        | Some c ->
            Printf.printf "check: %d of %d cases FAILED\n" (List.length failures)
              seeds;
            shrink_and_write ~max_checks:max_shrink_checks ~out c;
            exit 1)

(* --- chaos --- *)

(* Minimize a failing chaos case under the same fault plan it failed
   with, and write a reproducer whose header embeds the plan. *)
let shrink_and_write_chaos ~max_checks ~retry_budget ~out seed verdict =
  let g = Check.Gen.generate seed in
  let cfg = Check.Gen.chaos_config seed in
  let plan = Check.Gen.random_fault_plan seed in
  Printf.printf "shrinking chaos seed %d (class %s) ...\n%!" seed
    (Check.class_of verdict);
  let o =
    Check.Shrink.shrink_failure ~max_checks ~input_seed:seed ~faults:plan
      ~retry_budget cfg g verdict
  in
  Printf.printf "minimized: %d -> %d ops (%d reductions, %d re-checks)\n"
    (Ir.Graph.app_count g)
    (Ir.Graph.app_count o.Check.Shrink.graph)
    o.Check.Shrink.accepted o.Check.Shrink.checks;
  let verdict =
    Check.run_case ~input_seed:seed ~faults:plan ~retry_budget
      o.Check.Shrink.config o.Check.Shrink.graph
  in
  write_file out
    (Check.reproducer ~faults:plan ~seed ~config:o.Check.Shrink.config
       ~graph:o.Check.Shrink.graph ~verdict ());
  Printf.printf "wrote %s (fault plan embedded) — minimized verdict: %s\n" out
    (Check.describe verdict)

let chaos seeds start jobs retry_budget replay_seed out max_shrink_checks
    metrics_out metrics_format =
  match replay_seed with
  | Some seed ->
      Printf.printf "seed %d: plan %s\n" seed
        (Fault.Plan.to_string (Check.Gen.random_fault_plan seed));
      let verdict = Check.run_chaos_seed ~retry_budget seed in
      Printf.printf "seed %d: %s\n" seed (Check.describe verdict);
      if Check.is_failure verdict then begin
        shrink_and_write_chaos ~max_checks:max_shrink_checks ~retry_budget ~out
          seed verdict;
        exit 1
      end
  | None ->
      let jobs = resolve_jobs jobs in
      Printf.printf "chaos: seeds [%d, %d) on %d job%s (retry budget %d)\n%!"
        start (start + seeds) jobs
        (if jobs = 1 then "" else "s")
        retry_budget;
      let cases =
        Check.fuzz ~jobs
          ~run:(Check.run_chaos_seed ~retry_budget)
          ~progress:(fun ~completed ~total ->
            Printf.printf "\r  %d/%d campaigns%!" completed total)
          ~start ~count:seeds ()
      in
      print_newline ();
      List.iter
        (fun (cls, n) -> Printf.printf "  %-24s %d\n" cls n)
        (Check.tally cases);
      (match metrics_registry metrics_out with
      | None -> ()
      | Some reg ->
          Metrics.inc
            (Metrics.counter reg ~help:"Chaos campaigns run."
               "htvm_chaos_campaigns_total")
            seeds;
          List.iter
            (fun (cls, n) ->
              Metrics.inc
                (Metrics.counter reg
                   ~labels:[ ("class", cls) ]
                   ~help:"Chaos campaign verdicts by class."
                   "htvm_chaos_verdicts_total")
                n)
            (Check.tally cases);
          write_metrics metrics_out metrics_format (Metrics.snapshot reg));
      let failures =
        List.filter (fun c -> Check.is_failure c.Check.verdict) cases
      in
      List.iter
        (fun c ->
          Printf.printf "seed %d: %s\n" c.Check.seed (Check.describe c.Check.verdict))
        failures;
      (match Check.first_failure cases with
      | None -> Printf.printf "chaos: %d campaigns, no failures\n" seeds
      | Some c ->
          Printf.printf "chaos: %d of %d campaigns FAILED\n"
            (List.length failures) seeds;
          shrink_and_write_chaos ~max_checks:max_shrink_checks ~retry_budget
            ~out c.Check.seed c.Check.verdict;
          exit 1)

(* --- serve --- *)

(* Parse --model NAME=PATH. *)
let parse_model_flag s =
  match String.index_opt s '=' with
  | Some i when i > 0 && i < String.length s - 1 ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | _ ->
      Printf.eprintf "htvmc: bad --model %S (expected NAME=PATH)\n" s;
      exit 1

(* Parse --class NAME=MODEL[:SLO[:WEIGHT]]; SLO 0 means none. *)
let parse_class_flag s =
  let die () =
    Printf.eprintf
      "htvmc: bad --class %S (expected NAME=MODEL[:SLO[:WEIGHT]])\n" s;
    exit 1
  in
  match String.index_opt s '=' with
  | Some i when i > 0 && i < String.length s - 1 ->
      let name = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let model, slo, weight =
        match String.split_on_char ':' rest with
        | [ m ] -> (m, None, 1)
        | [ m; slo ] -> (
            match int_of_string_opt slo with
            | Some 0 -> (m, None, 1)
            | Some t -> (m, Some t, 1)
            | None -> die ())
        | [ m; slo; w ] -> (
            match (int_of_string_opt slo, int_of_string_opt w) with
            | Some t, Some w -> (m, (if t = 0 then None else Some t), w)
            | _ -> die ())
        | _ -> die ()
      in
      { Serve.k_name = name; k_model = model; k_slo = slo; k_weight = weight }
  | _ -> die ()

(* Assemble the optional health-lifecycle config from its flags. The
   0 / -1 defaults are the auto sentinels Serve resolves against the
   probe request's service time. *)
let health_config_of_args enabled threshold probation interval cost passes cap
    fail seed =
  if not enabled then None
  else
    Some
      {
        Health.fault_threshold = threshold;
        probation_window = probation;
        probe_interval = interval;
        probe_cost = cost;
        pass_threshold = passes;
        backoff_cap = cap;
        probe_fail_prob = fail;
        probe_seed = seed;
      }

(* The multi-tenant serve path: a model registry (the positional
   artifact is model "main", --model adds more), per-class SLOs, and a
   fleet that pins or hot-swaps models. All failures are typed
   [Serve.mt_error]s, printed and mapped to exit 1. *)
let serve_mt path config jobs workers batch queue_depth requests seed arrival
    gap window overhead no_plan degraded health model_flags class_flags
    placement swap_overhead period burst replay arrival_trace_out trace_out
    json_out tally_out metrics_out metrics_format store =
  let cfg = config_for config (Some jobs) in
  let model_paths = ("main", path) :: List.map parse_model_flag model_flags in
  (* Fleet warmup: every model compiles through the shared store, so a
     registry that was compiled anywhere before — or earlier in this
     list — comes out of the artifact tier, and fresh models still share
     layer-tier solves with each other. *)
  let models =
    List.map
      (fun (name, p) ->
        let g = load_graph p in
        {
          Serve.m_name = name;
          m_artifact = compile_or_die ?store cfg g;
          m_graph = g;
        })
      model_paths
  in
  let classes = List.map parse_class_flag class_flags in
  let mt_arrival =
    match replay with
    | Some file -> (
        match Serve.load_arrival_trace file with
        | Ok entries -> Serve.Mt_replay entries
        | Error e ->
            Printf.eprintf "htvmc: %s\n" (Serve.mt_error_to_string e);
            exit 1)
    | None -> (
        match arrival with
        | "closed" -> Serve.Mt_closed
        | "poisson" -> Serve.Mt_poisson { mean_gap = gap }
        | "diurnal" -> Serve.Mt_diurnal { mean_gap = gap; period }
        | "bursty" -> Serve.Mt_bursty { mean_gap = gap; burst }
        | other ->
            Printf.eprintf
              "htvmc: unknown arrival process %S \
               (closed|poisson|diurnal|bursty)\n"
              other;
            exit 1)
  in
  let placement =
    match placement with
    | "pinned" -> Serve.Pinned
    | "swap" -> Serve.Swap
    | other ->
        Printf.eprintf "htvmc: unknown placement %S (pinned|swap)\n" other;
        exit 1
  in
  let mcfg =
    {
      Serve.mt_workers = workers;
      mt_max_batch = batch;
      mt_queue_depth = queue_depth;
      mt_requests = requests;
      mt_seed = seed;
      mt_arrival;
      mt_window = window;
      mt_dispatch_overhead = overhead;
      mt_swap_overhead = swap_overhead;
      mt_placement = placement;
      mt_jobs = jobs;
      mt_use_plan = not no_plan;
      mt_degraded_instances = degraded;
      mt_health = health;
    }
  in
  (* Unlike the single-model path the registry is serve-only: the
     compile-side metrics register strictly, and compiling several
     models into one registry would collide. *)
  let reg = metrics_registry metrics_out in
  (* Before mt_run: the report snapshots the registry itself, and store
     traffic stops accruing once the fleet is compiled. *)
  export_store_metrics reg store;
  match
    with_trace trace_out (fun trace ->
        Serve.mt_run ?trace ?metrics:reg mcfg ~models ~classes)
  with
  | Error e ->
      Printf.eprintf "htvmc: %s\n" (Serve.mt_error_to_string e);
      exit 1
  | Ok report ->
      Printf.printf "serving %d model(s), %d class(es) on %s x%d\n"
        (List.length models) (List.length classes)
        cfg.Htvm.Compile.platform.Arch.Platform.platform_name workers;
      print_store_summary store;
      print_string (Serve.mt_summary report);
      write_metrics metrics_out metrics_format report.Serve.mt_metrics;
      (match arrival_trace_out with
      | None -> ()
      | Some p ->
          write_file p (Serve.render_arrival_trace report);
          Printf.printf "wrote %s\n" p);
      (match tally_out with
      | None -> ()
      | Some p ->
          write_file p (Serve.mt_tally report);
          Printf.printf "wrote %s\n" p);
      match json_out with
      | None -> ()
      | Some p ->
          write_file p (Trace.Json.to_string (Serve.mt_to_json report) ^ "\n");
          Printf.printf "wrote %s\n" p

let serve path config jobs workers batch queue_depth requests seed arrival gap
    window overhead inject faults_file retry_budget degrade_after degraded
    health slo_sojourn no_plan memoize input_mix model_flags class_flags
    placement swap_overhead period burst replay arrival_trace_out trace_out
    json_out tally_out metrics_out metrics_format cache cache_dir no_cache =
  let jobs = resolve_jobs jobs in
  let store = store_of_args cache cache_dir no_cache in
  if model_flags <> [] || class_flags <> [] || replay <> None then begin
    (* Multi-tenant mode. The single-model knobs that tenancy does not
       model are rejected loudly rather than silently ignored. *)
    List.iter
      (fun (set, flag) ->
        if set then begin
          Printf.eprintf
            "htvmc: %s is not supported with --model/--class/--replay\n" flag;
          exit 1
        end)
      [
        (inject <> None, "--inject");
        (faults_file <> None, "--faults");
        (degrade_after <> None, "--degrade-after");
        (slo_sojourn <> None, "--slo-sojourn (use per-class SLOs)");
        (memoize, "--memoize");
        (input_mix <> 0, "--input-mix");
      ];
    ignore retry_budget;
    serve_mt path config jobs workers batch queue_depth requests seed arrival
      gap window overhead no_plan degraded health model_flags class_flags
      placement swap_overhead period burst replay arrival_trace_out trace_out
      json_out tally_out metrics_out metrics_format store
  end
  else begin
  (match arrival_trace_out with
  | Some _ ->
      Printf.eprintf "htvmc: --trace-out requires --class (multi-tenant mode)\n";
      exit 1
  | None -> ());
  let g = load_graph path in
  let cfg = config_for config (Some jobs) in
  (* One registry spans compile and serve, so a single --metrics dump
     carries the wall-clock compile phases alongside the cycle-domain
     serving telemetry (in separate tracks). *)
  let reg = metrics_registry metrics_out in
  let artifact = compile_or_die ?metrics:reg ?store cfg g in
  export_store_metrics reg store;
  let plan =
    Option.value ~default:Fault.Plan.empty (plan_of_args inject faults_file)
  in
  let arrival =
    match arrival with
    | "closed" -> Serve.Closed
    | "poisson" -> Serve.Poisson { mean_gap = gap }
    | "diurnal" | "bursty" ->
        Printf.eprintf
          "htvmc: arrival %S needs multi-tenant mode (add --class)\n" arrival;
        exit 1
    | other ->
        Printf.eprintf "htvmc: unknown arrival process %S (closed|poisson)\n" other;
        exit 1
  in
  let scfg =
    {
      Serve.workers;
      max_batch = batch;
      queue_depth;
      requests;
      seed;
      arrival;
      window;
      dispatch_overhead = overhead;
      plan;
      retry_budget;
      degrade_after;
      degraded_instances = degraded;
      jobs;
      slo_sojourn;
      use_plan = not no_plan;
      memoize;
      input_mix;
      health;
    }
  in
  (* Diagnose bad flag combinations (e.g. --memoize with --inject) as a
     typed config error before the run: one clear line and exit 1, not a
     backtrace. The Invalid_argument catch below stays for violations
     only the run itself can detect (health field ranges). *)
  (match Serve.validate scfg with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "htvmc: %s\n" (Serve.mt_error_to_string e);
      exit 1);
  let report =
    match
      with_trace trace_out (fun trace ->
          Serve.run ?trace ?metrics:reg scfg artifact ~graph:g)
    with
    | r -> r
    | exception Invalid_argument msg ->
        Printf.eprintf "htvmc: %s\n" msg;
        exit 1
  in
  Printf.printf "serving %s on %s x%d\n" path
    cfg.Htvm.Compile.platform.Arch.Platform.platform_name workers;
  print_store_summary store;
  print_string (Serve.summary report);
  write_metrics metrics_out metrics_format report.Serve.r_metrics;
  (match tally_out with
  | None -> ()
  | Some p ->
      write_file p (Serve.tally report);
      Printf.printf "wrote %s\n" p);
  (match json_out with
  | None -> ()
  | Some p ->
      write_file p (Trace.Json.to_string (Serve.to_json report) ^ "\n");
      Printf.printf "wrote %s\n" p)
  end

(* --- campaign: fault-rate sweep under sustained load --- *)

let parse_rates s =
  let parts =
    List.filter (fun p -> p <> "")
      (List.map String.trim (String.split_on_char ',' s))
  in
  let rates =
    List.map
      (fun p ->
        match float_of_string_opt p with
        | Some f -> f
        | None ->
            Printf.eprintf "htvmc: bad --rates entry %S (expected a float)\n" p;
            exit 1)
      parts
  in
  if rates = [] then begin
    Printf.eprintf "htvmc: --rates must name at least one fault rate\n";
    exit 1
  end;
  rates

let campaign path config jobs workers batch queue_depth requests seed arrival
    gap window overhead retry_budget slo_sojourn no_plan health rates site kind
    fault_seed json_out tally_out metrics_out metrics_format =
  let jobs = resolve_jobs jobs in
  let g = load_graph path in
  let cfg = config_for config (Some jobs) in
  let reg = metrics_registry metrics_out in
  let artifact = compile_or_die ?metrics:reg cfg g in
  let arrival =
    match arrival with
    | "closed" -> Serve.Closed
    | "poisson" -> Serve.Poisson { mean_gap = gap }
    | other ->
        Printf.eprintf "htvmc: unknown arrival process %S (closed|poisson)\n"
          other;
        exit 1
  in
  let serve_cfg =
    {
      Serve.default with
      Serve.workers;
      max_batch = batch;
      queue_depth;
      requests;
      seed;
      arrival;
      window;
      dispatch_overhead = overhead;
      retry_budget;
      jobs;
      slo_sojourn;
      use_plan = not no_plan;
      health;
    }
  in
  let ccfg =
    {
      Campaign.c_serve = serve_cfg;
      c_rates = parse_rates rates;
      c_site = site;
      c_kind = kind;
      c_fault_seed = fault_seed;
    }
  in
  match Campaign.run ?metrics:reg ccfg artifact ~graph:g with
  | Error msg ->
      Printf.eprintf "htvmc: %s\n" msg;
      exit 1
  | Ok t ->
      Printf.printf "campaign %s on %s x%d\n" path
        cfg.Htvm.Compile.platform.Arch.Platform.platform_name workers;
      print_string (Campaign.summary t);
      write_metrics metrics_out metrics_format
        (match reg with
        | Some r -> Metrics.snapshot r
        | None -> Metrics.snapshot (Metrics.create ()));
      (match tally_out with
      | None -> ()
      | Some p ->
          write_file p (Campaign.tally t);
          Printf.printf "wrote %s\n" p);
      (match json_out with
      | None -> ()
      | Some p ->
          write_file p (Trace.Json.to_string (Campaign.to_json t) ^ "\n");
          Printf.printf "wrote %s\n" p)

(* --- dot --- *)

let dot path config out =
  let g = load_graph path in
  let highlight =
    match config with
    | None -> fun _ -> None
    | Some name ->
        let cfg = config_of_name name in
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
  match out with
  | None -> print_string src
  | Some p ->
      write_file p src;
      Printf.printf "wrote %s\n" p

(* --- cache: persistent-store maintenance --- *)

let human_bytes n =
  if n >= 1_048_576 then Printf.sprintf "%.1f MiB" (float_of_int n /. 1048576.0)
  else if n >= 1024 then Printf.sprintf "%.1f KiB" (float_of_int n /. 1024.0)
  else Printf.sprintf "%d B" n

let cache_action action cache_dir max_bytes =
  let root =
    match cache_dir with Some d -> d | None -> Store.default_root ()
  in
  let st =
    try Store.open_root root
    with Sys_error e ->
      Printf.eprintf "htvmc: cannot open cache: %s\n" e;
      exit 1
  in
  match action with
  | "stats" ->
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
  | "verify" ->
      let ok, removed = Store.verify st in
      Printf.printf "verified %d entr(ies): %d ok, %d rejected and removed\n"
        (ok + removed) ok removed
  | "gc" -> (
      match max_bytes with
      | None ->
          Printf.eprintf "htvmc: cache gc requires --max-bytes\n";
          exit 1
      | Some cap when cap < 0 ->
          Printf.eprintf "htvmc: --max-bytes must be >= 0\n";
          exit 1
      | Some cap ->
          let evicted = Store.gc st ~max_bytes:cap in
          let left = Store.entries st in
          Printf.printf
            "gc: evicted %d entr(ies); %d entr(ies), %s retained under a %s \
             cap\n"
            evicted (List.length left)
            (human_bytes (Store.total_bytes left))
            (human_bytes cap))
  | other ->
      Printf.eprintf "htvmc: unknown cache action %S (stats|verify|gc)\n" other;
      exit 1

(* --- cmdliner wiring --- *)

let path_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL.htvm")
let config_arg =
  Arg.(value & opt string "digital" & info [ "config"; "c" ] ~doc:"cpu|digital|analog|both")
let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event JSON (Perfetto-loadable) here.")
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

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write a metrics dump here (counters, gauges, histograms, \
                 per-window series). Cycle-domain metrics are byte-identical \
                 at any $(b,--workers)/$(b,--jobs); host wall-clock gauges \
                 live in a separate track rendered last.")
let metrics_format_arg =
  Arg.(value & opt string "prom"
       & info [ "metrics-format" ] ~docv:"FMT"
           ~doc:"Metrics dump format: $(b,prom) (Prometheus text), \
                 $(b,json) or $(b,csv).")

let inject_arg =
  Arg.(value & opt (some string) None
       & info [ "inject" ] ~docv:"SPEC"
           ~doc:"Run under a fault-injection campaign, e.g. \
                 $(b,seed=42,dma_in\\@every=5:drop,l2\\@nth=3:flip). \
                 $(b,none) is an explicit empty campaign (a strict no-op).")
let faults_file_arg =
  Arg.(value & opt (some string) None
       & info [ "faults" ] ~docv:"FILE"
           ~doc:"Load the fault plan from FILE (same grammar as \
                 $(b,--inject), one or more rules per line).")
let retry_budget_arg =
  Arg.(value & opt int 3
       & info [ "retry-budget" ] ~docv:"N"
           ~doc:"Detected-fault retries allowed per operation before the \
                 modeled runtime aborts the inference.")
let degrade_arg =
  Arg.(value & opt_all string []
       & info [ "degrade" ] ~docv:"TARGET"
           ~doc:"Treat accelerator TARGET as degraded: the compiler's \
                 fallback ladder re-lowers its segments to the next-best \
                 target. Repeatable.")
let no_plan_arg =
  Arg.(value & flag
       & info [ "no-plan" ]
           ~doc:"Execute on the slow interpretive simulator path instead of \
                 the artifact's compiled execution plan. Outputs, cycle \
                 counts, traces and injected-fault effects are \
                 byte-identical either way (the slow path is the \
                 conformance oracle). The plan also serves fault-injected \
                 runs; after an L2 bit-rot flip it runs the remaining \
                 accelerator steps on the slow path.")

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

let export_cmd =
  let model = Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL") in
  let policy = Arg.(value & opt string "int8" & info [ "policy"; "p" ] ~doc:"int8|ternary|mixed") in
  let out = Arg.(value & opt string "model.htvm" & info [ "o" ] ~doc:"Output path.") in
  Cmd.v (Cmd.info "export" ~doc:"Export a zoo model to a .htvm file")
    Term.(const export $ model $ policy $ out)

let inspect_cmd =
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the full graph.") in
  Cmd.v (Cmd.info "inspect" ~doc:"Print a model's statistics")
    Term.(const inspect $ path_arg $ verbose)

let compile_cmd =
  let emit_c =
    Arg.(value & opt (some string) None & info [ "emit-c" ] ~doc:"Write generated C here.")
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a model for DIANA")
    Term.(const compile $ path_arg $ config_arg $ jobs_arg $ emit_c $ trace_arg
          $ cache_arg $ cache_dir_arg $ no_cache_arg)

let run_cmd =
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Input seed.") in
  Cmd.v (Cmd.info "run" ~doc:"Compile and simulate a model")
    Term.(const run $ path_arg $ config_arg $ jobs_arg $ seed $ trace_arg
          $ inject_arg $ faults_file_arg $ retry_budget_arg $ degrade_arg
          $ no_plan_arg $ metrics_arg $ metrics_format_arg $ cache_arg
          $ cache_dir_arg $ no_cache_arg)

let profile_cmd =
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Input seed.") in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Also write the JSON report here.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Compile and simulate with tracing on; print a profile summary")
    Term.(const profile $ path_arg $ config_arg $ jobs_arg $ seed $ trace_arg
          $ json_out $ inject_arg $ faults_file_arg $ retry_budget_arg
          $ degrade_arg $ no_plan_arg $ metrics_arg $ metrics_format_arg
          $ cache_arg $ cache_dir_arg $ no_cache_arg)

let dot_cmd =
  let out = Arg.(value & opt (some string) None & info [ "o" ] ~doc:"Write DOT here.") in
  let config =
    Arg.(value & opt (some string) None
         & info [ "config"; "c" ] ~doc:"Color offloaded regions for this config.")
  in
  Cmd.v (Cmd.info "dot" ~doc:"Export a model as Graphviz DOT")
    Term.(const dot $ path_arg $ config $ out)

let quantize_cmd =
  let ternary = Arg.(value & flag & info [ "ternary" ] ~doc:"Ternarize conv weights.") in
  let samples = Arg.(value & opt int 8 & info [ "samples" ] ~doc:"Calibration samples.") in
  let out = Arg.(value & opt string "model.htvm" & info [ "o" ] ~doc:"Output path.") in
  Cmd.v (Cmd.info "quantize" ~doc:"Post-training quantize a .fhtvm float model")
    Term.(const quantize $ path_arg $ ternary $ samples $ out)

let export_float_cmd =
  let which = Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL") in
  let out = Arg.(value & opt string "model.fhtvm" & info [ "o" ] ~doc:"Output path.") in
  Cmd.v (Cmd.info "export-float" ~doc:"Write a sample float model to a .fhtvm file")
    Term.(const export_float $ which $ out)

let verify_cmd =
  let trials = Arg.(value & opt int 10 & info [ "trials"; "n" ] ~doc:"Random inputs to check.") in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Differentially verify the compiled artifact against the interpreter")
    Term.(const verify $ path_arg $ config_arg $ jobs_arg $ trials)

let check_cmd =
  let seeds =
    Arg.(value & opt int 100
         & info [ "seeds"; "n" ] ~docv:"N" ~doc:"Number of fuzz seeds to run.")
  in
  let start =
    Arg.(value & opt int 0 & info [ "start" ] ~docv:"S" ~doc:"First seed of the range.")
  in
  let golden_dir =
    Arg.(value & opt string "test/golden"
         & info [ "golden-dir" ] ~docv:"DIR" ~doc:"Golden snapshot directory.")
  in
  let bless =
    Arg.(value & flag
         & info [ "bless" ]
             ~doc:"Re-record the golden snapshots (model zoo x deployment \
                   configs) instead of fuzzing.")
  in
  let replay_seed =
    Arg.(value & opt (some int) None
         & info [ "replay-seed" ] ~docv:"SEED"
             ~doc:"Run exactly one fuzz case (from a reproducer header) instead \
                   of a range.")
  in
  let out =
    Arg.(value & opt string "htvm-repro.htvm"
         & info [ "o"; "repro" ] ~docv:"FILE"
             ~doc:"Where to write the minimized reproducer on failure.")
  in
  let max_shrink_checks =
    Arg.(value & opt int 400
         & info [ "max-shrink-checks" ] ~docv:"N"
             ~doc:"Budget of failure-predicate re-checks for the shrinker.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Differential conformance check: fuzz random (graph, config) cases \
             against the reference interpreter, auto-shrink the first failure \
             to a minimal reproducer; --bless records golden snapshots")
    Term.(const check $ seeds $ start $ jobs_arg $ golden_dir $ bless $ replay_seed
          $ out $ max_shrink_checks)

let chaos_cmd =
  let seeds =
    Arg.(value & opt int 100
         & info [ "seeds"; "n" ] ~docv:"N"
             ~doc:"Number of chaos campaigns to run.")
  in
  let start =
    Arg.(value & opt int 0 & info [ "start" ] ~docv:"S" ~doc:"First seed of the range.")
  in
  let replay_seed =
    Arg.(value & opt (some int) None
         & info [ "replay-seed" ] ~docv:"SEED"
             ~doc:"Replay exactly one chaos campaign (from a reproducer \
                   header) instead of a range.")
  in
  let out =
    Arg.(value & opt string "htvm-chaos-repro.htvm"
         & info [ "o"; "repro" ] ~docv:"FILE"
             ~doc:"Where to write the minimized reproducer (fault plan \
                   embedded) on failure.")
  in
  let max_shrink_checks =
    Arg.(value & opt int 400
         & info [ "max-shrink-checks" ] ~docv:"N"
             ~doc:"Budget of failure-predicate re-checks for the shrinker.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Fuzz under randomized fault-injection campaigns: each seed pairs \
             a random case with a random recoverable fault plan; any \
             detected-uncorrected or silent-corruption verdict fails and is \
             shrunk to a replayable reproducer")
    Term.(const chaos $ seeds $ start $ jobs_arg $ retry_budget_arg
          $ replay_seed $ out $ max_shrink_checks $ metrics_arg
          $ metrics_format_arg)

(* Health-lifecycle knobs shared by `serve` and `campaign`. [enable] is
   the command's on/off term (`--health` for serve, `--no-health` for
   campaign, which defaults to on). *)
let health_knobs enable =
  let threshold =
    Arg.(value & opt int Health.default.Health.fault_threshold
         & info [ "health-threshold" ] ~docv:"N"
             ~doc:"Faults accumulated during one healthy tenure before an \
                   instance degrades.")
  in
  let probation =
    Arg.(value & opt int 0
         & info [ "probation" ] ~docv:"CYCLES"
             ~doc:"Base cooldown between degrading and the first health \
                   probe; escalates exponentially on relapse. 0 = auto \
                   (twice a probe request's service time).")
  in
  let interval =
    Arg.(value & opt int (-1)
         & info [ "probe-interval" ] ~docv:"CYCLES"
             ~doc:"Idle gap between probes while on probation; 0 = \
                   back-to-back, -1 = auto (a quarter of a probe request's \
                   service time).")
  in
  let cost =
    Arg.(value & opt int 0
         & info [ "probe-cost" ] ~docv:"CYCLES"
             ~doc:"Cycles each health probe occupies the probed instance; \
                   0 = auto (a tenth of a probe request's service time).")
  in
  let passes =
    Arg.(value & opt int Health.default.Health.pass_threshold
         & info [ "probe-passes" ] ~docv:"N"
             ~doc:"Consecutive probe passes required for readmission.")
  in
  let cap =
    Arg.(value & opt int 0
         & info [ "health-cap" ] ~docv:"CYCLES"
             ~doc:"Ceiling for the escalated probation cooldown; 0 = auto \
                   (eight probation windows).")
  in
  let fail =
    Arg.(value & opt float Health.default.Health.probe_fail_prob
         & info [ "probe-fail" ] ~docv:"P"
             ~doc:"Per-probe Bernoulli failure probability (seeded, \
                   deterministic).")
  in
  let hseed =
    Arg.(value & opt int Health.default.Health.probe_seed
         & info [ "health-seed" ] ~docv:"S"
             ~doc:"Base seed for the per-instance probe-outcome streams.")
  in
  Term.(const health_config_of_args $ enable $ threshold $ probation $ interval
        $ cost $ passes $ cap $ fail $ hseed)

let serve_cmd =
  let workers =
    Arg.(value & opt int Serve.default.Serve.workers
         & info [ "workers"; "w" ] ~docv:"N"
             ~doc:"Fleet size: independent simulated SoC instances.")
  in
  let batch =
    Arg.(value & opt int Serve.default.Serve.max_batch
         & info [ "batch"; "b" ] ~docv:"N"
             ~doc:"Maximum requests per dispatched batch; in multi-tenant \
                   mode 0 = autotune against the dispatch overhead.")
  in
  let queue_depth =
    Arg.(value & opt int Serve.default.Serve.queue_depth
         & info [ "queue-depth" ] ~docv:"N"
             ~doc:"Ingress buffer capacity per dispatch window; requests \
                   arriving into a full window are shed (poisson mode).")
  in
  let requests =
    Arg.(value & opt int Serve.default.Serve.requests
         & info [ "requests"; "n" ] ~docv:"N" ~doc:"Synthetic requests to generate.")
  in
  let seed =
    Arg.(value & opt int Serve.default.Serve.seed
         & info [ "seed" ] ~docv:"S"
             ~doc:"Seeds the arrival process and every request payload. The \
                   per-request tally is bit-identical at any $(b,--workers) \
                   and $(b,--jobs) for a fixed seed.")
  in
  let arrival =
    Arg.(value & opt string "closed"
         & info [ "arrival" ] ~docv:"MODE"
             ~doc:"$(b,closed) (saturating backlog, the throughput experiment) \
                   or $(b,poisson) (open loop with exponential gaps); \
                   multi-tenant mode adds $(b,diurnal) (gap mean sweeps \
                   peak-to-trough over --period) and $(b,bursty) (--burst \
                   requests at a time).")
  in
  let gap =
    Arg.(value & opt int 0
         & info [ "gap" ] ~docv:"CYCLES"
             ~doc:"Mean Poisson inter-arrival gap in cycles; 0 = auto (half a \
                   probe request's service time).")
  in
  let window =
    Arg.(value & opt int 0
         & info [ "window" ] ~docv:"CYCLES"
             ~doc:"Dispatch window length in cycles (poisson mode); 0 = auto \
                   (one probe request's service time).")
  in
  let overhead =
    Arg.(value & opt int Serve.default.Serve.dispatch_overhead
         & info [ "dispatch-overhead" ] ~docv:"CYCLES"
             ~doc:"Cycles charged once per dispatched batch.")
  in
  let degrade_after =
    Arg.(value & opt (some int) None
         & info [ "degrade-after" ] ~docv:"N"
             ~doc:"Route around an instance once the requests it served have \
                   reported N faults (detected + silent).")
  in
  let degraded =
    Arg.(value & opt_all int []
         & info [ "degraded" ] ~docv:"ID"
             ~doc:"Instance id degraded from cycle 0 (repeatable). Ids must \
                   be distinct and in [0, workers). With $(b,--health) the \
                   instance walks the probation/readmission lifecycle; \
                   without it it stays out of rotation for the whole run.")
  in
  let health =
    health_knobs
      Arg.(value & flag
           & info [ "health" ]
               ~doc:"Enable the per-instance health lifecycle: degraded \
                     instances re-enter probation after a cooldown, run \
                     seeded probes (each costing cycles on the probed \
                     instance) and are readmitted to the rotation after \
                     consecutive passes. Mutually exclusive with \
                     $(b,--degrade-after).")
  in
  let slo_sojourn =
    Arg.(value & opt (some int) None
         & info [ "slo-sojourn" ] ~docv:"CYCLES"
             ~doc:"Sojourn (arrival-to-completion) SLO target in cycles. \
                   Violations are counted against the predicted \
                   queueing-free sojourn (worker-invariant, in the tally) \
                   and against the observed sojourn (fleet-dependent, \
                   report only).")
  in
  let memoize =
    Arg.(value & flag
         & info [ "memoize" ]
             ~doc:"Reuse one execution across requests with identical input \
                   digests (deduplicated before the worker fan-out). \
                   Requires a fault-free run; the tally is byte-identical \
                   with and without it, only hit/miss telemetry and wall \
                   time move.")
  in
  let input_mix =
    Arg.(value & opt int Serve.default.Serve.input_mix
         & info [ "input-mix" ] ~docv:"K"
             ~doc:"Fold per-request input seeds into a pool of K distinct \
                   payloads (0 = every request unique, the default). \
                   Arrival times are unaffected. Gives $(b,--memoize) \
                   something to hit.")
  in
  let model_flags =
    Arg.(value & opt_all string []
         & info [ "model" ] ~docv:"NAME=PATH"
             ~doc:"Register an additional model (repeatable). The positional \
                   MODEL.htvm is always registered as $(b,main). Any --model \
                   or --class flag switches serve into multi-tenant mode.")
  in
  let class_flags =
    Arg.(value & opt_all string []
         & info [ "class" ] ~docv:"NAME=MODEL[:SLO[:WEIGHT]]"
             ~doc:"Define a request class (repeatable): which registered \
                   model it runs, an optional per-class sojourn SLO in \
                   cycles (0 = none; requests whose predicted sojourn \
                   exceeds it are shed), and its share of synthetic traffic \
                   (default weight 1).")
  in
  let placement =
    Arg.(value & opt string "swap"
         & info [ "placement" ] ~docv:"MODE"
             ~doc:"$(b,swap) (any instance serves any batch, paying \
                   --swap-overhead per model change) or $(b,pinned) \
                   (instance i permanently hosts model i mod n; needs \
                   workers >= distinct models).")
  in
  let swap_overhead =
    Arg.(value & opt int Serve.mt_default.Serve.mt_swap_overhead
         & info [ "swap-overhead" ] ~docv:"CYCLES"
             ~doc:"Model reload cost when an instance switches models.")
  in
  let period =
    Arg.(value & opt int 0
         & info [ "period" ] ~docv:"CYCLES"
             ~doc:"Diurnal arrival period; 0 = auto (8 dispatch windows).")
  in
  let burst =
    Arg.(value & opt int 4
         & info [ "burst" ] ~docv:"N"
             ~doc:"Requests per burst for $(b,--arrival bursty).")
  in
  let replay =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Replay a recorded arrival trace (cycles, classes, payload \
                   seeds) instead of generating arrivals; implies \
                   multi-tenant mode and requires matching --class flags.")
  in
  let arrival_trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Record the run's arrival stream in the replayable \
                   $(b,htvm-serve-trace v1) format (multi-tenant mode).")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Write the JSON serving report here.")
  in
  let tally_out =
    Arg.(value & opt (some string) None
         & info [ "tally" ] ~docv:"FILE"
             ~doc:"Write the canonical per-request tally here (byte-identical \
                   across worker counts for a fixed seed).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a seeded synthetic request stream on a fleet of simulated \
             SoC instances: windowed admission with shedding, batched \
             dispatch, routing around degraded instances, latency/throughput \
             aggregation. With --model/--class, a multi-tenant fleet hosting \
             several artifacts under per-class latency SLOs.")
    Term.(const serve $ path_arg $ config_arg $ jobs_arg $ workers $ batch
          $ queue_depth $ requests $ seed $ arrival $ gap $ window $ overhead
          $ inject_arg $ faults_file_arg $ retry_budget_arg $ degrade_after
          $ degraded $ health $ slo_sojourn $ no_plan_arg $ memoize $ input_mix
          $ model_flags $ class_flags $ placement $ swap_overhead $ period
          $ burst $ replay $ arrival_trace_out $ trace_arg $ json_out
          $ tally_out $ metrics_arg $ metrics_format_arg $ cache_arg
          $ cache_dir_arg $ no_cache_arg)

let campaign_cmd =
  let workers =
    Arg.(value & opt int Serve.default.Serve.workers
         & info [ "workers"; "w" ] ~docv:"N"
             ~doc:"Fleet size. The campaign tally is byte-identical at any \
                   value.")
  in
  let batch =
    Arg.(value & opt int Serve.default.Serve.max_batch
         & info [ "batch"; "b" ] ~docv:"N"
             ~doc:"Maximum requests per dispatched batch.")
  in
  let queue_depth =
    Arg.(value & opt int Serve.default.Serve.queue_depth
         & info [ "queue-depth" ] ~docv:"N"
             ~doc:"Ingress buffer capacity per dispatch window.")
  in
  let requests =
    Arg.(value & opt int Serve.default.Serve.requests
         & info [ "requests"; "n" ] ~docv:"N"
             ~doc:"Synthetic requests per rate point.")
  in
  let seed =
    Arg.(value & opt int Serve.default.Serve.seed
         & info [ "seed" ] ~docv:"S"
             ~doc:"Seeds the arrival process and request payloads (shared by \
                   every rate point).")
  in
  let arrival =
    Arg.(value & opt string "poisson"
         & info [ "arrival" ] ~docv:"MODE"
             ~doc:"$(b,closed) or $(b,poisson) (default: the open-loop \
                   experiment, so shedding has meaning).")
  in
  let gap =
    Arg.(value & opt int 0
         & info [ "gap" ] ~docv:"CYCLES"
             ~doc:"Mean Poisson inter-arrival gap; 0 = auto.")
  in
  let window =
    Arg.(value & opt int 0
         & info [ "window" ] ~docv:"CYCLES"
             ~doc:"Dispatch window length; 0 = auto.")
  in
  let overhead =
    Arg.(value & opt int Serve.default.Serve.dispatch_overhead
         & info [ "dispatch-overhead" ] ~docv:"CYCLES"
             ~doc:"Cycles charged once per dispatched batch.")
  in
  let slo_sojourn =
    Arg.(value & opt (some int) None
         & info [ "slo-sojourn" ] ~docv:"CYCLES"
             ~doc:"Sojourn SLO target; predicted violations per rate point \
                   form the campaign's SLO curve.")
  in
  let health =
    health_knobs
      Term.(const not
            $ Arg.(value & flag
                   & info [ "no-health" ]
                       ~doc:"Disable the health lifecycle (campaigns default \
                             to running it, so readmission counts appear in \
                             the curve)."))
  in
  let rates =
    Arg.(value & opt string "0.002,0.01,0.05"
         & info [ "rates" ] ~docv:"P,P,..."
             ~doc:"Comma-separated fault injection probabilities to sweep, \
                   each in [0, 1].")
  in
  let site =
    Arg.(value & opt string "dma_in"
         & info [ "site" ] ~docv:"SITE"
             ~doc:"Fault site to inject at (plan grammar: dma_in, dma_out, \
                   weight_load, compute[=ENGINE], l1, l2).")
  in
  let kind =
    Arg.(value & opt string "flip"
         & info [ "fault-kind" ] ~docv:"KIND"
             ~doc:"Fault kind per injection (plan grammar: flip[=BIT], drop, \
                   stall=CYCLES).")
  in
  let fault_seed =
    Arg.(value & opt int 7
         & info [ "fault-seed" ] ~docv:"S"
             ~doc:"Seed shared by every generated fault plan.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Write the JSON campaign report here.")
  in
  let tally_out =
    Arg.(value & opt (some string) None
         & info [ "tally" ] ~docv:"FILE"
             ~doc:"Write the campaign tally here (byte-identical across \
                   worker and job counts for a fixed seed).")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Sustained chaos-under-load campaign: sweep a fault site's \
             injection probability across rate points, serving the full \
             request stream at each, and report SLO-violation / shed-rate / \
             readmission curves. The health lifecycle is on by default so \
             degraded instances re-enter rotation mid-run.")
    Term.(const campaign $ path_arg $ config_arg $ jobs_arg $ workers $ batch
          $ queue_depth $ requests $ seed $ arrival $ gap $ window $ overhead
          $ retry_budget_arg $ slo_sojourn $ no_plan_arg $ health $ rates
          $ site $ kind $ fault_seed $ json_out $ tally_out $ metrics_arg
          $ metrics_format_arg)

let cache_cmd =
  let action =
    Arg.(value & pos 0 string "stats"
         & info [] ~docv:"ACTION"
             ~doc:"$(b,stats) (inventory per tier), $(b,verify) (re-check \
                   every entry's header and digest, deleting invalid ones) \
                   or $(b,gc) (LRU-by-mtime eviction down to \
                   $(b,--max-bytes)).")
  in
  let max_bytes =
    Arg.(value & opt (some int) None
         & info [ "max-bytes" ] ~docv:"N"
             ~doc:"Size cap for $(b,gc): least-recently-used entries are \
                   evicted until the store fits.")
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:"Inspect and maintain the persistent compilation store \
             (stats / verify / gc).")
    Term.(const cache_action $ action $ cache_dir_arg $ max_bytes)

let report_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o" ] ~doc:"Write the report here.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the machine-readable JSON report instead of markdown.")
  in
  Cmd.v (Cmd.info "report" ~doc:"Compile, simulate and print a deployment report")
    Term.(const report $ path_arg $ config_arg $ jobs_arg $ out $ json)

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "htvmc" ~version:"1.0"
             ~doc:"HTVM compiler driver for heterogeneous TinyML platforms")
          [ export_cmd; export_float_cmd; quantize_cmd; inspect_cmd; compile_cmd;
            run_cmd; profile_cmd; verify_cmd; check_cmd; chaos_cmd; serve_cmd;
            campaign_cmd; report_cmd; cache_cmd; dot_cmd ]))
