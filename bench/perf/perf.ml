(* The repository's performance benchmark: host time of compiling,
   serving and chaos campaigns, end to end and per layer.

     perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--smoke] [--golden-dir DIR]

   A run sets its workload up several times (the median is [setup_s]),
   checks the program's outputs, then repeats one operation of the
   workload until [--seconds] have passed. The last line of standard
   output is one JSON object with the keys correct, attempted, failed
   and metrics. An untraced run reports the end-to-end metrics; a traced
   run ([--trace 1]) reports the per-layer ones and writes a Chrome trace
   of bench-owned spans, plus the compiler's own phase spans, to
   .bench_perf/trace-<workload>-seed<N>.json. A failed check exits 1 before any metric prints.

   [--seed] is the only input to workload generation (arrivals, request
   input seeds, fault plans, reference-check inputs). Stores live in fresh
   directories under .bench_perf and are removed on exit. README.md
   documents every workload and metric. *)

module C = Htvm.Compile
module J = Trace.Json

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let traced = ref false
let smoke = ref false
let golden_dir = ref "test/golden"
let work_dir = ".bench_perf"

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perf: " ^ msg);
      exit 1)
    fmt

(* --- metrics ------------------------------------------------------------ *)

let end_to_end =
  [
    ("setup_s", "s");
    ("host_rps", "1/s");
    ("heap_peak_mb", "MB");
    ("sim_full_cycles", "cycles");
    ("sim_peak_cycles", "cycles");
    ("binary_bytes", "B");
  ]

let phases =
  [ "simplify"; "partition"; "lower"; "fuse"; "autotune"; "memplan"; "plan"; "emit" ]

let per_layer =
  List.map (fun p -> ("compile." ^ p ^ "_ms", "ms")) phases
  @ [
      ("tiling.solves", "count");
      ("tiling.tests", "count");
      ("tiling.explored", "count");
      ("tiling.pruned", "count");
      ("plan.build_ms", "ms");
      ("plan.scratch_words", "words");
      ("plan.image_bytes", "B");
      ("store.key_ms", "ms");
      ("store.find_ms", "ms");
      ("store.hits", "count");
      ("store.misses", "count");
      ("store.rejects", "count");
      ("store.bytes", "B");
      ("store.cold_set_ms", "ms");
      ("sim.accel_compute_cycles", "cycles");
      ("sim.weight_load_cycles", "cycles");
      ("sim.dma_cycles", "cycles");
      ("sim.cpu_compute_cycles", "cycles");
      ("sim.host_overhead_cycles", "cycles");
      ("sim.stall_cycles", "cycles");
      ("sim.dma_bytes", "B");
      ("sim.plan_ms_per_req", "ms");
      ("sim.accel_step_ms_per_req", "ms");
      ("sim.cpu_step_ms_per_req", "ms");
      ("sim.oracle_ms_per_req", "ms");
      ("sim.faulted_ms_per_req", "ms");
      ("serve.generate_ms", "ms");
      ("serve.execute_ms", "ms");
      ("serve.engine_ms", "ms");
      ("serve.render_ms", "ms");
      ("serve.executions", "count");
      ("serve.memo_hit_ratio", "fraction");
      ("serve.batches", "count");
      ("serve.swaps", "count");
      ("serve.utilization", "fraction");
      ("serve.fail_open", "count");
      ("serve.sojourn_p99_cycles", "cycles");
      ("serve.slo_miss_frac", "fraction");
      ("serve.failed_frac", "fraction");
      ("fault.detected", "count");
      ("fault.silent", "count");
      ("fault.retries", "count");
      ("fault.retry_cycles", "cycles");
      ("health.transitions", "count");
      ("health.readmissions", "count");
      ("campaign.point_s", "s");
      ("trace.overhead_frac", "fraction");
    ]

(* Per-layer samples; a metric's value is the median of its samples, 0
   when the workload never exercised that layer. *)
let samples : (string, float list) Hashtbl.t = Hashtbl.create 64

let record name v =
  if not (List.mem_assoc name per_layer) then invalid_arg ("unknown layer metric " ^ name);
  Hashtbl.replace samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let recordi name v = record name (float_of_int v)

(* Smoke runs keep the first [n] items of the checks' and probes' lists. *)
let in_smoke n l = if !smoke then List.filteri (fun i _ -> i < n) l else l
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let ms s = s *. 1000.0

(* --- clock, spans and scratch directories -------------------------------- *)

let origin = Unix.gettimeofday ()
let us t = int_of_float ((t -. origin) *. 1e6)

(* [f ()] and its wall seconds. With a trace, also a bench-owned span on
   [track] (wall microseconds since start; tracks are named after the
   layer called). *)
let timed tr ?(track = "bench") ?(args = []) name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  Trace.interval tr ~track ~cat:"bench" ~args ~ts:(us t0) ~dur:(us t1 - us t0) name;
  (r, t1 -. t0)

(* Host time of an op is taken from the run's fastest op. On a shared
   two-core x86-64 host, a neighbour on the same physical core halves the
   speed of compute-bound code for a fraction of a second at a time,
   several times a second, and a fixed loop's time drifted from 0.62 s
   to 1.06 s within half a minute. Medians of op times moved 10-25% from
   run to run under that interference; the fastest of many short ops (a
   few hundred ms at most) stayed within a few percent, because some op
   always lands in a quiet moment. *)
let fastest = List.fold_left Float.min infinity

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let live_dirs = ref []
let dir_count = ref 0

let fresh_dir () =
  incr dir_count;
  let d =
    Filename.concat work_dir (Printf.sprintf "store-%d-%d" (Unix.getpid ()) !dir_count)
  in
  rm_rf d;
  mkdir_p d;
  live_dirs := d :: !live_dirs;
  d

let remove_dir d =
  rm_rf d;
  live_dirs := List.filter (( <> ) d) !live_dirs

let () =
  at_exit (fun () ->
      List.iter rm_rf !live_dirs;
      try Unix.rmdir work_dir with Unix.Unix_error _ -> ())

(* --- deployments ------------------------------------------------------- *)

type deployment = {
  name : string;
  cfg : C.config;
  graph : Ir.Graph.t;
  golden : (string * string) option;  (** (model, config) of its snapshot *)
  group : string;  (** its configuration: deployments of one group share a store *)
}

let engine platform = { (C.default_config platform) with C.jobs = 1 }

(* Table I: the zoo on each configuration with its paper policy. *)
let table1 () =
  List.concat_map
    (fun (e : Models.Zoo.entry) ->
      List.map
        (fun (config, platform, policy) ->
          {
            name = e.Models.Zoo.model_name ^ "/" ^ config;
            cfg = engine platform;
            graph = e.Models.Zoo.build policy;
            golden = Some (e.Models.Zoo.model_name, config);
            group = config;
          })
        Check.Golden.configurations)
    Models.Zoo.all

(* The zoo fits DIANA's 256 kB L1 untiled; an 8 kB L1 pushes every large
   layer through the DORY solver, and autotuning gives the host kernels
   real search work too. *)
let tiling_set () =
  let platform =
    {
      Arch.Diana.digital_only with
      Arch.Platform.l1 = { Arch.Memory.level_name = "L1"; size_bytes = Util.Ints.kib 8 };
    }
  in
  List.map
    (fun (e : Models.Zoo.entry) ->
      {
        name = e.Models.Zoo.model_name ^ "/tiling";
        cfg = { (engine platform) with C.autotune_budget = Some 20_000 };
        graph = e.Models.Zoo.build Models.Policy.All_int8;
        golden = None;
        group = "tiling";
      })
    Models.Zoo.all

let both model =
  {
    name = model ^ "/both";
    cfg = engine Arch.Diana.platform;
    graph = (Models.Zoo.find model).Models.Zoo.build Models.Policy.Mixed;
    golden = Some (model, "both");
    group = "both";
  }

let compile_one tr ?store d =
  match
    fst
      (timed tr ~track:"Htvm.Compile" ~args:[ ("deployment", J.Str d.name) ] "compile"
         (fun () -> C.compile ?trace:tr ?store d.cfg d.graph))
  with
  | Ok a -> a
  | Error e -> fail "compile %s failed: %s" d.name (C.error_to_string e)

(* A deployment run on its golden input: the cycle and size metrics and
   the snapshot check come from these. *)
type built = { d : deployment; art : C.artifact; out : Tensor.t; report : Sim.Machine.report }

let golden_run (d, art) =
  let inputs = Models.Zoo.random_input ~seed:Check.Golden.input_seed d.graph in
  let out, report = C.run art ~inputs in
  { d; art; out; report }

let check_golden b =
  match b.d.golden with
  | None -> ()
  | Some (model, config) -> (
      match Check.Golden.load ~dir:!golden_dir ~model ~config with
      | Error msg -> fail "%s" msg
      | Ok expected -> (
          let actual =
            {
              Check.Golden.ge_model = model;
              ge_config = config;
              ge_output_digest = Check.Golden.digest_tensor b.out;
              ge_wall_cycles = C.full_cycles b.report;
              ge_binary_bytes = b.art.C.size.Codegen.Size.total_bytes;
              ge_l2_static_bytes = b.art.C.l2_static_bytes;
              ge_l2_arena_bytes = b.art.C.l2_arena_bytes;
            }
          in
          match Check.Golden.diff ~expected ~actual with
          | [] -> ()
          | diffs ->
              fail "%s differs from its golden snapshot: %s" b.d.name
                (String.concat "; " diffs)))

let check_reference d =
  match Check.run_case ~input_seed:!seed d.cfg d.graph with
  | Check.Pass _ -> ()
  | v -> fail "%s: reference check gave %s" d.name (Check.describe v)

let check_digests what ~expected ~actual =
  List.iter2
    (fun (d, a) (_, b) ->
      if C.artifact_digest a <> C.artifact_digest b then
        fail "%s: %s artifact digest differs from the no-store compile" d.name what)
    expected actual

(* Simulated-counter layers: deterministic sums over the golden runs. *)
let record_counters builts =
  let tot = Sim.Counters.create () in
  List.iter (fun b -> Sim.Counters.add tot b.report.Sim.Machine.totals) builts;
  let open Sim.Counters in
  recordi "sim.accel_compute_cycles" tot.accel_compute;
  recordi "sim.weight_load_cycles" tot.weight_load;
  recordi "sim.dma_cycles" (tot.dma_in + tot.dma_out);
  recordi "sim.cpu_compute_cycles" tot.cpu_compute;
  recordi "sim.host_overhead_cycles" tot.host_overhead;
  recordi "sim.stall_cycles" tot.stall;
  recordi "sim.dma_bytes" (tot.dma_bytes_in + tot.dma_bytes_out)

(* --- compile-side layers ------------------------------------------------ *)

(* Self time per span name on the compiler track: a span's duration minus
   the part of it its child spans cover. *)
let phase_self_us events =
  let spans =
    List.filter
      (fun e -> e.Trace.ev_kind = Trace.Span && e.Trace.ev_track = "compiler")
      events
    |> List.stable_sort (fun a b -> compare a.Trace.ev_ts b.Trace.ev_ts)
  in
  let self = Hashtbl.create 8 in
  let close (e, child) =
    Hashtbl.replace self e.Trace.ev_name
      (e.Trace.ev_dur - !child
      + Option.value ~default:0 (Hashtbl.find_opt self e.Trace.ev_name))
  in
  let stack = ref [] in
  List.iter
    (fun e ->
      let rec unwind () =
        match !stack with
        | ((p, _) as top) :: rest when p.Trace.ev_ts + p.Trace.ev_dur <= e.Trace.ev_ts ->
            close top;
            stack := rest;
            unwind ()
        | _ -> ()
      in
      unwind ();
      (match !stack with (_, child) :: _ -> child := !child + e.Trace.ev_dur | [] -> ());
      stack := (e, ref 0) :: !stack)
    spans;
  List.iter close !stack;
  self

let events_since tr n =
  match tr with
  | None -> []
  | Some t -> List.filteri (fun i _ -> i >= n) (Trace.events t)

let event_count = function None -> 0 | Some t -> List.length (Trace.events t)

(* The artifact store key names the platform but not its accelerator
   set or memory sizes, so two configurations of one model collide in a
   shared store (Table I's cpu and digital columns compile the same
   graph). Each configuration therefore gets a store of its own. *)
let open_stores ds =
  List.sort_uniq compare (List.map (fun d -> d.group) ds)
  |> List.map (fun g ->
         let dir = fresh_dir () in
         (g, (dir, Store.open_root dir)))

let close_stores stores = List.iter (fun (_, (dir, _)) -> remove_dir dir) stores

let store_of stores d = Option.map snd (List.assoc_opt d.group stores)

let compile_set tr ~stores ds =
  List.map (fun d -> (d, compile_one tr ?store:(store_of stores d) d)) ds

(* Compile a set once with the compiler's own phase spans on, then time
   the layers the bench can call directly on its artifacts. *)
let compile_layers tr ~stores ds =
  let ev0 = event_count tr in
  let counts () =
    List.fold_left
      (fun (h, m, r) (_, (_, st)) -> (h + Store.hits st, m + Store.misses st, r + Store.rejects st))
      (0, 0, 0) stores
  in
  let h0, m0, r0 = counts () in
  Dory.Tiling.reset_solver_work ();
  let arts, dt = timed tr "compile-set" (fun () -> compile_set tr ~stores ds) in
  let self = phase_self_us (events_since tr ev0) in
  List.iter
    (fun p ->
      record
        ("compile." ^ p ^ "_ms")
        (float_of_int (Option.value ~default:0 (Hashtbl.find_opt self p)) /. 1000.0))
    phases;
  let work = Dory.Tiling.solver_work () in
  recordi "tiling.solves" work.Dory.Tiling.solves;
  recordi "tiling.tests" work.Dory.Tiling.tests;
  recordi "tiling.explored" (sum (fun (_, a) -> a.C.solver.C.ss_explored) arts);
  recordi "tiling.pruned" (sum (fun (_, a) -> a.C.solver.C.ss_pruned) arts);
  let each track name f =
    List.fold_left
      (fun acc (d, a) ->
        acc +. snd (timed tr ~track ~args:[ ("deployment", J.Str d.name) ] name (fun () -> f d a)))
      0.0 arts
  in
  record "plan.build_ms"
    (ms
       (each "Sim.Plan" "build" (fun d a ->
            ignore (Sim.Plan.build ~platform:d.cfg.C.platform a.C.program))));
  let stats = List.map (fun (_, a) -> Sim.Plan.stats a.C.plan) arts in
  recordi "plan.scratch_words" (sum (fun s -> s.Sim.Plan.scratch_words) stats);
  recordi "plan.image_bytes" (sum (fun s -> s.Sim.Plan.image_bytes) stats);
  record "store.key_ms"
    (ms (each "Store" "artifact_store_key" (fun d _ -> ignore (C.artifact_store_key d.cfg d.graph))));
  if stores <> [] then begin
    let h, m, r = counts () in
    recordi "store.hits" (h - h0);
    recordi "store.misses" (m - m0);
    recordi "store.rejects" (r - r0);
    record "store.find_ms"
      (ms
         (each "Store" "find" (fun d _ ->
              Option.iter
                (fun st -> ignore (Store.find st Store.Artifact ~key:(C.artifact_store_key d.cfg d.graph)))
                (store_of stores d))));
    recordi "store.bytes"
      (sum (fun (_, (_, st)) -> Store.total_bytes (Store.entries st)) stores)
  end;
  (arts, dt)

(* --- simulator replays --------------------------------------------------- *)

(* One request replayed on the plan path, its accelerator steps alone on
   a checked-out arena, and the interpretive oracle; each timing is the
   fastest of three, so that their difference stays meaningful. *)
type replay = { rp_id : int; rp_art : C.artifact; rp_graph : Ir.Graph.t; rp_seed : int }

let replay_sim tr items =
  let items = in_smoke 2 items in
  let plan = ref 0.0 and accel = ref 0.0 and oracle = ref 0.0 in
  List.iter
    (fun it ->
      let inputs = Models.Zoo.random_input ~seed:it.rp_seed it.rp_graph in
      let args = [ ("request", J.Int it.rp_id) ] in
      let a = it.rp_art in
      let accel_steps () =
        let l2, l1 = Sim.Plan.checkout a.C.plan in
        List.iteri
          (fun i step ->
            match step with
            | Sim.Program.Accel _ ->
                ignore (Sim.Plan.run_accel_step a.C.plan ~step_index:i ~l2 ~l1 ~t0:0 ())
            | Sim.Program.Cpu _ -> ())
          a.C.program.Sim.Program.steps
      in
      (* Interleaved, so that one burst of interference cannot slow all
         repetitions of one path. *)
      let reps =
        List.init (if !smoke then 1 else 3) (fun _ ->
            ( snd (timed tr ~track:"Sim" ~args "plan" (fun () -> ignore (C.run a ~inputs))),
              snd (timed tr ~track:"Sim.Plan" ~args "accel_steps" accel_steps),
              snd
                (timed tr ~track:"Sim" ~args "oracle" (fun () ->
                     ignore (C.run ~use_plan:false a ~inputs))) ))
      in
      plan := !plan +. fastest (List.map (fun (p, _, _) -> p) reps);
      accel := !accel +. fastest (List.map (fun (_, s, _) -> s) reps);
      oracle := !oracle +. fastest (List.map (fun (_, _, o) -> o) reps))
    items;
  let per x = ms x /. float_of_int (max 1 (List.length items)) in
  record "sim.plan_ms_per_req" (per !plan);
  record "sim.accel_step_ms_per_req" (per !accel);
  record "sim.cpu_step_ms_per_req" (per (!plan -. !accel));
  record "sim.oracle_ms_per_req" (per !oracle);
  per !plan

(* --- serving views ----------------------------------------------------- *)

type request = { rq_id : int; rq_model : string; rq_seed : int; rq_digest : string option }

(* What the bench reads from one serve run, whichever engine ran it. *)
type view = {
  requests : request list;  (** every request, in request order *)
  sojourns : int list;  (** arrival to completion, served requests *)
  failed : int;  (** shed + rejected + aborted *)
  slo_missed : int;  (** served requests over their SLO (observed) *)
  executions : int;  (** simulator runs the engine performed *)
  memo_hits : int;
  memo_misses : int;
  batches : int;
  swaps : int;
  utilization : float;  (** mean over instances *)
  fail_open : int;
  detected : int;
  silent : int;
  retries : int;
  retry_cycles : int;
  transitions : int;
  readmissions : int;
  tally : string Lazy.t;  (** the engine's functional ledger *)
  render : unit -> unit;  (** tally + JSON report + Prometheus export *)
}

let mean_of f l =
  if l = [] then 0.0 else List.fold_left (fun acc x -> acc +. f x) 0.0 l /. float_of_int (List.length l)

let mt_view (r : Serve.mt_report) =
  let classes = Array.of_list r.Serve.mt_class_list in
  {
    requests =
      List.map
        (fun ((q : Serve.mt_request), o) ->
          {
            rq_id = q.Serve.q_id;
            rq_model = classes.(q.Serve.q_class).Serve.k_model;
            rq_seed = q.Serve.q_input_seed;
            rq_digest = (match o with Serve.Mt_served s -> Some s.mo_digest | _ -> None);
          })
        r.Serve.mt_outcomes;
    sojourns =
      List.filter_map
        (function
          | (q : Serve.mt_request), Serve.Mt_served s -> Some (s.mo_finish - q.Serve.q_arrival)
          | _ -> None)
        r.Serve.mt_outcomes;
    failed = r.Serve.mt_shed_queue + r.Serve.mt_shed_slo;
    slo_missed = sum (fun c -> c.Serve.cs_observed_violations) r.Serve.mt_class_stats;
    executions = List.length r.Serve.mt_outcomes - r.Serve.mt_shed_queue;
    memo_hits = 0;
    memo_misses = 0;
    batches = sum (fun i -> i.Serve.mi_batches) r.Serve.mt_instances;
    swaps = r.Serve.mt_swaps;
    utilization = mean_of (fun i -> i.Serve.mi_utilization) r.Serve.mt_instances;
    fail_open = r.Serve.mt_fail_open;
    detected = 0;
    silent = 0;
    retries = 0;
    retry_cycles = 0;
    transitions = 0;
    readmissions = 0;
    tally = lazy (Serve.mt_tally r);
    render =
      (fun () ->
        ignore (Serve.mt_tally r);
        ignore (J.to_string (Serve.mt_to_json r));
        ignore (Metrics.to_prometheus r.Serve.mt_metrics));
  }

let run_view ~model (r : Serve.report) =
  let totals = List.map (fun i -> i.Serve.i_totals) r.Serve.r_instances in
  let health f = match r.Serve.r_health with Some h -> f h | None -> 0 in
  {
    requests =
      List.map
        (fun ((q : Serve.request), o) ->
          {
            rq_id = q.Serve.r_id;
            rq_model = model;
            rq_seed = q.Serve.r_input_seed;
            rq_digest = (match o with Serve.Served s -> Some s.o_digest | _ -> None);
          })
        r.Serve.r_outcomes;
    sojourns =
      List.filter_map
        (function
          | (q : Serve.request), Serve.Served s -> Some (s.o_finish - q.Serve.r_arrival)
          | _ -> None)
        r.Serve.r_outcomes;
    failed = r.Serve.r_rejected + r.Serve.r_aborted;
    slo_missed = (match r.Serve.r_slo with Some s -> s.Serve.s_observed_violations | None -> 0);
    executions =
      (if r.Serve.r_config.Serve.memoize then r.Serve.r_memo_misses
       else r.Serve.r_served + r.Serve.r_aborted);
    memo_hits = r.Serve.r_memo_hits;
    memo_misses = r.Serve.r_memo_misses;
    batches = sum (fun i -> i.Serve.i_batches) r.Serve.r_instances;
    swaps = 0;
    utilization = mean_of (fun i -> i.Serve.i_utilization) r.Serve.r_instances;
    fail_open = r.Serve.r_fail_open;
    detected = sum (fun t -> t.Sim.Counters.faults_detected) totals;
    silent = sum (fun t -> t.Sim.Counters.faults_silent) totals;
    retries = sum (fun t -> t.Sim.Counters.retries) totals;
    retry_cycles = sum (fun t -> t.Sim.Counters.retry_cycles) totals;
    transitions = health (fun h -> h.Serve.h_pred_transitions);
    readmissions = health (fun h -> h.Serve.h_pred_readmissions);
    tally = lazy (Serve.tally r);
    render =
      (fun () ->
        ignore (Serve.tally r);
        ignore (J.to_string (Serve.to_json r));
        ignore (Metrics.to_prometheus r.Serve.r_metrics));
  }

let campaign_view ~model (t : Campaign.t) =
  let vs = List.map (fun pt -> run_view ~model pt.Campaign.pt_report) t.Campaign.t_points in
  let total f = sum f vs in
  {
    requests = List.concat_map (fun v -> v.requests) vs;
    sojourns = List.concat_map (fun v -> v.sojourns) vs;
    failed = total (fun v -> v.failed);
    slo_missed = total (fun v -> v.slo_missed);
    executions = total (fun v -> v.executions);
    memo_hits = 0;
    memo_misses = 0;
    batches = total (fun v -> v.batches);
    swaps = 0;
    utilization = mean_of (fun v -> v.utilization) vs;
    fail_open = total (fun v -> v.fail_open);
    detected = total (fun v -> v.detected);
    silent = total (fun v -> v.silent);
    retries = total (fun v -> v.retries);
    retry_cycles = total (fun v -> v.retry_cycles);
    transitions = total (fun v -> v.transitions);
    readmissions = total (fun v -> v.readmissions);
    tally = lazy (Campaign.tally t);
    render =
      (fun () ->
        ignore (Campaign.tally t);
        ignore (J.to_string (Campaign.to_json t)));
  }

(* The first [n] distinct (model, input) requests the engine executed. *)
let distinct n v =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun rq ->
      let k = (rq.rq_model, rq.rq_seed) in
      if rq.rq_digest = None || Hashtbl.mem seen k || Hashtbl.length seen >= n then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    v.requests

(* Served outputs must equal both simulator paths on the same input. *)
let check_served ~arts v ~requests =
  if List.length v.requests <> requests then
    fail "%d outcomes for %d requests" (List.length v.requests) requests;
  List.iter
    (fun rq ->
      let d, a = List.assoc rq.rq_model arts in
      let inputs = Models.Zoo.random_input ~seed:rq.rq_seed d.graph in
      let plan = Check.Golden.digest_tensor (fst (C.run a ~inputs)) in
      let oracle = Check.Golden.digest_tensor (fst (C.run ~use_plan:false a ~inputs)) in
      if plan <> oracle || Some plan <> rq.rq_digest then
        fail "request %d (%s): served, plan and oracle output digests differ" rq.rq_id
          rq.rq_model)
    (in_smoke 2 (distinct 8 v))

(* Per-op serve layers; execution and engine time are settled once the
   per-request simulator time is known. *)
let serve_ops = ref []

let record_serve_op tr ~graph_of ~wall v =
  let gen =
    List.fold_left
      (fun acc rq ->
        acc
        +. snd
             (timed tr ~track:"Models.Zoo" ~args:[ ("request", J.Int rq.rq_id) ] "random_input"
                (fun () -> Models.Zoo.random_input ~seed:rq.rq_seed (graph_of rq.rq_model))))
      0.0 v.requests
  in
  serve_ops := (wall, gen, v.executions) :: !serve_ops;
  record "serve.generate_ms" (ms gen);
  record "serve.render_ms" (ms (snd (timed tr ~track:"Serve" "render" v.render)));
  let n = float_of_int (max 1 (List.length v.requests)) in
  recordi "serve.executions" v.executions;
  record "serve.memo_hit_ratio"
    (if v.memo_hits + v.memo_misses = 0 then 0.0
     else float_of_int v.memo_hits /. float_of_int (v.memo_hits + v.memo_misses));
  recordi "serve.batches" v.batches;
  recordi "serve.swaps" v.swaps;
  record "serve.utilization" v.utilization;
  recordi "serve.fail_open" v.fail_open;
  recordi "serve.sojourn_p99_cycles" (Serve.percentiles_of v.sojourns).Serve.p99;
  record "serve.slo_miss_frac" (float_of_int (v.failed + v.slo_missed) /. n);
  record "serve.failed_frac" (float_of_int v.failed /. n);
  recordi "fault.detected" v.detected;
  recordi "fault.silent" v.silent;
  recordi "fault.retries" v.retries;
  recordi "fault.retry_cycles" v.retry_cycles;
  recordi "health.transitions" v.transitions;
  recordi "health.readmissions" v.readmissions

let settle_serve_ops ~exec_ms =
  List.iter
    (fun (wall, gen, executions) ->
      let execute = float_of_int executions *. exec_ms in
      record "serve.execute_ms" execute;
      record "serve.engine_ms" (Float.max 0.0 (ms wall -. ms gen -. execute)))
    !serve_ops

(* --- workloads ----------------------------------------------------------- *)

(* One set-up of a workload, ready to measure. [op] performs one
   operation and returns its measured wall seconds. *)
type instance = {
  units_per_op : int;  (** deployments compiled or requests served per op *)
  op : Trace.t option -> float;
  check : unit -> unit;  (** output checks; exits 1 on failure *)
  builts : unit -> built list;  (** golden runs of the deployments *)
  probe : Trace.t option -> unit;  (** traced runs: per-layer probes after the loop *)
  cleanup : unit -> unit;
}

(* Compile one deployment set per op, with no store or from stores
   warmed during set-up. *)
let compile_workload ~set ~warm ~reference () =
  let ds = set () in
  let plain = compile_set None ~stores:[] ds in
  let stores = if warm then open_stores ds else [] in
  if warm then ignore (compile_set None ~stores ds);
  let last = ref plain in
  let op tr =
    let arts, dt =
      match tr with
      | Some _ -> compile_layers tr ~stores ds
      | None -> timed None "compile-set" (fun () -> compile_set None ~stores ds)
    in
    last := arts;
    dt
  in
  ignore (op None);
  let builts = lazy (List.map golden_run plain) in
  {
    units_per_op = List.length ds;
    op;
    check =
      (fun () ->
        List.iter check_golden (Lazy.force builts);
        if reference then List.iter check_reference (in_smoke 4 ds);
        if warm then begin
          check_digests "warm-store" ~expected:plain ~actual:!last;
          let hits () = sum (fun (_, (_, st)) -> Store.hits st) stores in
          let h0 = hits () in
          ignore (op None);
          if hits () - h0 <> List.length ds then
            fail "warm stores served %d of %d artifacts" (hits () - h0) (List.length ds)
        end);
    builts = (fun () -> Lazy.force builts);
    probe =
      (fun tr ->
        ignore
          (replay_sim tr
             (List.mapi
                (fun i b -> { rp_id = i; rp_art = b.art; rp_graph = b.d.graph; rp_seed = Check.Golden.input_seed })
                (Lazy.force builts)));
        (* Writing into empty stores rides on the filesystem's background
           work, which made a measured cold-store workload drift run
           after run; it is reported here, ungated. *)
        if warm then begin
          let empty = open_stores ds in
          let arts, dt = timed tr ~track:"Store" "cold-set" (fun () -> compile_set None ~stores:empty ds) in
          check_digests "cold-store" ~expected:plain ~actual:arts;
          record "store.cold_set_ms" (ms dt);
          close_stores empty
        end);
    cleanup = (fun () -> close_stores stores);
  }

(* Every workload runs on one domain: on a two-core host, two-domain
   serving runs of one seed varied three times as much run to run. *)
let serve_jobs = 1

(* Each op serves its own request stream, seeded from --seed and the
   op's index, so a run samples many draws of arrivals and shed sets
   instead of riding on one. *)
let stream_seed k = (!seed * 10_007) + k

(* The serve workloads' deployments, compiled; in traced runs their
   compile layers are probed once. *)
let serve_deployments models =
  let ds = List.map both models in
  List.map (fun d -> (fst (Option.get d.golden), (d, compile_one None d))) ds

let serve_probe tr arts v ~exec_ms_of =
  ignore (compile_layers tr ~stores:[] (List.map (fun (_, (d, _)) -> d) arts));
  let items =
    List.map
      (fun rq ->
        let d, a = List.assoc rq.rq_model arts in
        { rp_id = rq.rq_id; rp_art = a; rp_graph = d.graph; rp_seed = rq.rq_seed })
      (distinct 8 v)
  in
  let plan_ms = replay_sim tr items in
  settle_serve_ops ~exec_ms:(exec_ms_of plan_ms)

(* [run trace stream] serves one stream. The check replays stream 0 and
   requires the engine's functional ledger to come out byte-identical;
   [extra_check] runs right after that replay. *)
let serve_instance ~arts ~requests ~run ~extra_check ~exec_ms_of =
  let graph_of m = (fst (List.assoc m arts)).graph in
  let next = ref 0 and last = ref None in
  let op tr =
    let v, dt = run tr (stream_seed !next) in
    incr next;
    last := Some v;
    if tr <> None then record_serve_op tr ~graph_of ~wall:dt v;
    dt
  in
  ignore (op None);
  let first = Option.get !last in
  let builts = lazy (List.map (fun (_, da) -> golden_run da) arts) in
  {
    units_per_op = requests;
    op;
    check =
      (fun () ->
        List.iter check_golden (Lazy.force builts);
        check_served ~arts first ~requests;
        if Lazy.force (fst (run None (stream_seed 0))).tally <> Lazy.force first.tally then
          fail "the serve tally changed between two runs of one stream";
        extra_check ());
    builts = (fun () -> Lazy.force builts);
    probe = (fun tr -> serve_probe tr arts (Option.get !last) ~exec_ms_of);
    cleanup = ignore;
  }

(* Open-loop Poisson arrivals (mean gap 80k cycles, ~40% fleet load)
   with the classes in a fixed 2:1:1 rotation, replayed through the
   engine's trace path: every op carries the same class mix, so its host
   time does not ride on how many requests drew the costliest model. *)
let mixed_trace ~requests stream =
  let rng = Util.Rng.create stream in
  let rotation = [| "keyword"; "vision"; "keyword"; "anomaly" |] in
  let clock = ref 0 in
  List.init requests (fun i ->
      let u = float_of_int (Util.Rng.int rng 1_000_000) /. 1e6 in
      clock := !clock + int_of_float (-80_000.0 *. log (1.0 -. u));
      {
        Serve.t_cycle = !clock;
        t_class = rotation.(i mod Array.length rotation);
        t_seed = Util.Rng.int rng 0x3FFFFFFF;
        t_line = i + 1;
      })

let serve_mixed () =
  let arts = serve_deployments [ Models.Ds_cnn.name; Models.Resnet8.name; Models.Toyadmos.name ] in
  let requests = if !smoke then 8 else 60 in
  let cfg stream =
    {
      Serve.mt_default with
      Serve.mt_workers = 4;
      mt_queue_depth = 8;
      mt_seed = stream;
      mt_arrival = Serve.Mt_replay (mixed_trace ~requests stream);
      mt_placement = Serve.Swap;
      mt_jobs = serve_jobs;
    }
  in
  let models =
    List.map (fun (m, (d, a)) -> { Serve.m_name = m; m_artifact = a; m_graph = d.graph }) arts
  in
  let classes =
    [
      { Serve.k_name = "keyword"; k_model = Models.Ds_cnn.name; k_slo = Some 1_000_000; k_weight = 2 };
      { Serve.k_name = "vision"; k_model = Models.Resnet8.name; k_slo = None; k_weight = 1 };
      { Serve.k_name = "anomaly"; k_model = Models.Toyadmos.name; k_slo = Some 500_000; k_weight = 1 };
    ]
  in
  serve_instance ~arts ~requests ~extra_check:ignore ~exec_ms_of:Fun.id ~run:(fun tr stream ->
      let r, dt =
        timed tr ~track:"Serve" "mt_run" (fun () -> Serve.mt_run ?trace:tr (cfg stream) ~models ~classes)
      in
      match r with
      | Ok r -> (mt_view r, dt)
      | Error e -> fail "mt_run: %s" (Serve.mt_error_to_string e))

let serve_repeat () =
  let arts = serve_deployments [ Models.Resnet8.name ] in
  let d, a = snd (List.hd arts) in
  let requests = if !smoke then 100 else 1000 in
  let cfg stream =
    {
      Serve.default with
      Serve.workers = 4;
      queue_depth = 8;
      requests;
      seed = stream;
      arrival = Serve.Poisson { mean_gap = 0 };
      slo_sojourn = Some 2_000_000;
      input_mix = 8;
      memoize = true;
      jobs = serve_jobs;
    }
  in
  serve_instance ~arts ~requests ~extra_check:ignore ~exec_ms_of:Fun.id ~run:(fun tr stream ->
      let r, dt =
        timed tr ~track:"Serve" "run" (fun () -> Serve.run ?trace:tr (cfg stream) a ~graph:d.graph)
      in
      (run_view ~model:Models.Resnet8.name r, dt))

let chaos_rates = [ 0.002; 0.01; 0.05 ]

let chaos () =
  let arts = serve_deployments [ Models.Resnet8.name ] in
  let d, a = snd (List.hd arts) in
  let cfg ~per_point stream rates =
    {
      Campaign.default with
      Campaign.c_rates = rates;
      c_fault_seed = stream;
      c_serve =
        {
          Campaign.default.Campaign.c_serve with
          Serve.workers = 4;
          requests = per_point;
          seed = stream;
          slo_sojourn = Some 2_000_000;
          retry_budget = 4;
          jobs = serve_jobs;
        };
    }
  in
  let campaign tr ~per_point stream rates =
    let t, dt =
      timed tr ~track:"Campaign" "run" (fun () ->
          Campaign.run (cfg ~per_point stream rates) a ~graph:d.graph)
    in
    match t with Ok t -> (t, dt) | Error msg -> fail "campaign: %s" msg
  in
  (* Ops are one request per rate point, short enough for the fastest op
     to dodge interference. The check runs stream 0 with four per point,
     and the probe replays that campaign's requests. *)
  let checked = ref None in
  let faulted_ms = ref 0.0 in
  let hottest = List.fold_left Float.max 0.0 chaos_rates in
  let detects (t : Campaign.t) =
    List.exists
      (fun pt ->
        pt.Campaign.pt_rate = hottest && (run_view ~model:"" pt.Campaign.pt_report).detected > 0)
      t.Campaign.t_points
  in
  (* At the hottest rate about half of the requests see no detected
     fault, so four requests of one stream miss them all for a few seeds
     in forty (27, 37 and 40 among 1-40). Further streams of four at that
     rate are served until one detects a fault; sixteen more all missing
     is not expected to happen. *)
  let check_detection t =
    let rec more k =
      if k > 16 then fail "the %g fault-rate point detected no fault in %d requests" hottest (4 * k)
      else if not (detects (fst (campaign None ~per_point:4 (stream_seed k) [ hottest ]))) then
        more (k + 1)
    in
    if not (detects t) then more 1
  in
  let inst =
    serve_instance ~arts ~requests:(List.length chaos_rates)
      ~exec_ms_of:(fun _ -> !faulted_ms)
      ~extra_check:(fun () ->
        let t, _ = campaign None ~per_point:4 (stream_seed 0) chaos_rates in
        check_detection t;
        checked := Some t)
      ~run:(fun tr stream ->
        let t, dt = campaign tr ~per_point:1 stream chaos_rates in
        (campaign_view ~model:Models.Resnet8.name t, dt))
  in
  (* Faulted requests take the interpretive path under the per-request
     fault session the serving engine derives from the point's plan. *)
  let probe tr =
    let t = Option.get !checked in
    let runs =
      List.concat_map
        (fun pt ->
          let plan = pt.Campaign.pt_plan in
          List.map
            (fun ((q : Serve.request), _) ->
              let inputs = Models.Zoo.random_input ~seed:q.Serve.r_input_seed d.graph in
              let session =
                Fault.Session.create
                  { plan with Fault.Plan.seed = plan.Fault.Plan.seed + ((q.Serve.r_id + 1) * 1_000_003) }
              in
              snd
                (timed tr ~track:"Sim" ~args:[ ("request", J.Int q.Serve.r_id) ] "faulted" (fun () ->
                     try ignore (C.run ~faults:session ~retry_budget:4 a ~inputs)
                     with Fault.Session.Unrecovered _ -> ())))
            (in_smoke 1 pt.Campaign.pt_report.Serve.r_outcomes))
        t.Campaign.t_points
    in
    faulted_ms := ms (List.fold_left ( +. ) 0.0 runs) /. float_of_int (max 1 (List.length runs));
    record "sim.faulted_ms_per_req" !faulted_ms;
    List.iter
      (fun r ->
        let per_point = if !smoke then 1 else 4 in
        record "campaign.point_s" (snd (campaign tr ~per_point (stream_seed 0) [ r ])))
      chaos_rates;
    inst.probe tr
  in
  { inst with probe }

let workloads =
  [
    ("compile", compile_workload ~set:table1 ~warm:false ~reference:true);
    ("compile-tiling", compile_workload ~set:tiling_set ~warm:false ~reference:true);
    ("compile-store-warm", compile_workload ~set:table1 ~warm:true ~reference:false);
    ("serve-mixed", serve_mixed);
    ("serve-repeat", serve_repeat);
    ("chaos", chaos);
  ]

(* --- driver ---------------------------------------------------------------- *)

let usage =
  "perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] \
   [--golden-dir DIR]\nworkloads: "
  ^ String.concat ", " (List.map fst workloads)

let parse_args () =
  let trace_flag = function
    | "0" -> traced := false
    | "1" -> traced := true
    | s -> raise (Arg.Bad ("--trace takes 0 or 1, not " ^ s))
  in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload generation seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 10)");
      ("--trace", Arg.String trace_flag, "0|1 report per-layer metrics and write a trace");
      ("--smoke", Arg.Set smoke, " shrink every workload (a quick self-test)");
      ("--golden-dir", Arg.Set_string golden_dir, "DIR conformance snapshots (default test/golden)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem_assoc !workload workloads) then begin
    prerr_endline usage;
    exit 2
  end;
  if not (Float.is_finite !seconds && !seconds >= 0.0) then begin
    prerr_endline "perf: --seconds must be a non-negative number";
    exit 2
  end


let metric_json table name value =
  (name, J.Obj [ ("value", J.Float value); ("unit", J.Str (List.assoc name table)) ])

let () =
  parse_args ();
  mkdir_p work_dir;
  let tr = if !traced then Some (Trace.create ()) else None in
  let setup = List.assoc !workload workloads in
  (* Set-up is measured five times; the last one is measured on. *)
  let inst, setup_times =
    let rec go k prev times =
      if k = 0 then (Option.get prev, times)
      else begin
        Option.iter (fun i -> i.cleanup ()) prev;
        let i, dt = timed tr "setup" setup in
        go (k - 1) (Some i) (dt :: times)
      end
    in
    go (if !smoke then 1 else 5) None []
  in
  inst.check ();
  Gc.compact ();
  let min_ops = if !smoke then 1 else 3 in
  let deadline = Unix.gettimeofday () +. !seconds in
  let plain = ref [] and with_trace = ref [] in
  (* The heap peak is read after a fixed amount of work, so that it does
     not depend on how many ops fit in the measuring time. *)
  let heap_peak = ref 0 in
  while List.length !plain < min_ops || Unix.gettimeofday () < deadline do
    plain := inst.op None :: !plain;
    if !traced then with_trace := inst.op tr :: !with_trace;
    if List.length !plain = min_ops then heap_peak := (Gc.quick_stat ()).Gc.top_heap_words
  done;
  let ops = List.length !plain + List.length !with_trace in
  let metrics =
    if !traced then begin
      inst.probe tr;
      record_counters (inst.builts ());
      record "trace.overhead_frac" ((fastest !with_trace /. fastest !plain) -. 1.0);
      let file =
        Filename.concat work_dir (Printf.sprintf "trace-%s-seed%d.json" !workload !seed)
      in
      Util.File.write_atomic file (Trace.to_chrome_json (Option.get tr));
      Printf.printf "trace: %s\n" file;
      List.map
        (fun (name, _) ->
          let v = match Hashtbl.find_opt samples name with Some s -> Stats.median s | None -> 0.0 in
          metric_json per_layer name v)
        per_layer
    end
    else
      let builts = inst.builts () in
      [
        metric_json end_to_end "setup_s" (Stats.median setup_times);
        metric_json end_to_end "host_rps" (float_of_int inst.units_per_op /. fastest !plain);
        metric_json end_to_end "heap_peak_mb"
          (float_of_int (!heap_peak * (Sys.word_size / 8)) /. 1e6);
        metric_json end_to_end "sim_full_cycles"
          (float_of_int (sum (fun b -> C.full_cycles b.report) builts));
        metric_json end_to_end "sim_peak_cycles"
          (float_of_int (sum (fun b -> C.peak_cycles b.report) builts));
        metric_json end_to_end "binary_bytes"
          (float_of_int (sum (fun b -> b.art.C.size.Codegen.Size.total_bytes) builts));
      ]
  in
  inst.cleanup ();
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool true);
            ("attempted", J.Int (ops * inst.units_per_op));
            ("failed", J.Int 0);
            ("metrics", J.Obj metrics);
          ]))
