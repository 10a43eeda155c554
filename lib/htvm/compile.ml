module G = Ir.Graph
module P = Sim.Program
module L = Ir.Layer

type config = {
  platform : Arch.Platform.t;
  memory_strategy : Dory.Memplan.strategy;
  double_buffer : bool;
  use_pe_heuristics : bool;
  use_dma_heuristic : bool;
  autotune_budget : int option;
  jobs : int;
  solver_cache : Dory.Tiling_cache.t option;
  exhaustive_tiling : bool;
  degraded_targets : string list;
  segment_budget_cycles : int option;
}

let default_config platform =
  {
    platform;
    memory_strategy = Dory.Memplan.Reuse;
    double_buffer = true;
    use_pe_heuristics = true;
    use_dma_heuristic = true;
    autotune_budget = None;
    jobs = Util.Pool.jobs_from_env ();
    solver_cache = None;
    exhaustive_tiling = false;
    degraded_targets = [];
    segment_budget_cycles = None;
  }

let tvm_baseline_config platform =
  { (default_config platform) with memory_strategy = Dory.Memplan.No_reuse }

type layer_info = {
  li_index : int;
  li_target : string;
  li_desc : string;
  li_tiled : bool;
  li_tile : Arch.Tile.t option;
}

type solver_stats = {
  ss_explored : int;
  ss_infeasible : int;
  ss_pruned : int;
  ss_cache_hits : int;
  ss_cache_misses : int;
}

type demotion_reason =
  | Degraded_target
  | Infeasible of Dory.Tiling.infeasible
  | Over_budget of { estimated_cycles : int; budget_cycles : int }

type demotion = {
  d_output : G.id;
  d_layer : string;
  d_from : string;
  d_to : string;
  d_reason : demotion_reason;
}

let demotion_reason_to_string = function
  | Degraded_target -> "target marked degraded"
  | Infeasible inf -> Dory.Tiling.infeasible_to_string inf
  | Over_budget { estimated_cycles; budget_cycles } ->
      Printf.sprintf "estimated %d cycles exceeds segment budget %d"
        estimated_cycles budget_cycles

type artifact = {
  cfg : config;
  program : Sim.Program.t;
  plan : Sim.Plan.t;
  size : Codegen.Size.report;
  layers : layer_info list;
  c_source : string;
  l2_static_bytes : int;
  l2_arena_bytes : int;
  tuning_trials : int;
  solver : solver_stats;
  demotions : demotion list;
}

type error =
  | Out_of_memory of {
      oom_region : string;
      oom_needed_bytes : int;
      oom_capacity_bytes : int;
      oom_detail : string;
    }
  | No_feasible_tile of Dory.Tiling.infeasible
  | Empty_graph
  | Internal of string

let error_to_string = function
  | Out_of_memory { oom_detail; _ } -> oom_detail
  | No_feasible_tile inf -> Dory.Tiling.infeasible_to_string inf
  | Empty_graph -> "nothing to execute: graph has no operator applications"
  | Internal msg -> "internal compiler error: " ^ msg

let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)

let is_resource_error = function
  | Out_of_memory _ | No_feasible_tile _ -> true
  | Empty_graph | Internal _ -> false

(* ---- persistent store integration ----

   Two tiers. The layer tier maps a tiling-problem signature to its
   serialized [Dory.Tiling.outcome] — stats included, so a warm solve
   replays the exact trace payload and solver totals of a cold one. The
   artifact tier maps a graph+config+code-version digest to the full
   compiled artifact (minus [cfg], supplied by the caller, and minus the
   execution plan, a derived accelerator-closure structure rebuilt on
   load with [Sim.Plan.build]).

   Serialization is [Marshal] with [No_sharing]: every value stored is
   closure-free pure data, and the structural (sharing-free) encoding
   makes re-marshalling a round-tripped value reproduce the stored bytes
   exactly — which is what makes [artifact_digest] of a warm artifact
   byte-identical to the cold one. [code_version] is folded into every
   key, so a format change after an upgrade is a clean miss, never a
   misread; unmarshalling only ever runs on digest-verified payloads and
   is still guarded, with a decode failure rejecting the entry. *)

let code_version = "htvm-code-v1"

let layer_store_key signature =
  Util.Key.encode [ code_version; "layer"; signature ]

let bytes_of_outcome (o : Dory.Tiling.outcome) =
  Marshal.to_string o [ Marshal.No_sharing ]

let outcome_of_bytes s =
  match (Marshal.from_string s 0 : Dory.Tiling.outcome) with
  | o -> Some o
  | exception _ -> None

(* Verified store lookup of one layer outcome: a digest-valid entry whose
   payload still fails to unmarshal is invalidated so it cannot be served
   again. *)
let store_find_outcome st key =
  match Store.find st Store.Layer ~key with
  | None -> None
  | Some payload -> (
      match outcome_of_bytes payload with
      | Some o -> Some o
      | None ->
          Store.invalidate st Store.Layer ~key;
          None)

(* Every config field that can influence the compiled artifact. [jobs]
   and [solver_cache] are excluded on purpose: compilation is
   deterministic in both (enforced by the test suite), so they must not
   fragment the key space. The platform name alone does not identify the
   hardware: every [Platform.with_accels] variant and every shrunken L1
   keeps the base platform's name, so its accelerators (in order), memory
   sizes, DMA cost model and clock are part of the key too. *)
let platform_fingerprint (p : Arch.Platform.t) =
  let dma = p.Arch.Platform.dma in
  Util.Key.encode
    [
      p.Arch.Platform.platform_name;
      Util.Key.encode
        (List.map (fun a -> a.Arch.Accel.accel_name) p.Arch.Platform.accels);
      string_of_int p.Arch.Platform.l1.Arch.Memory.size_bytes;
      string_of_int p.Arch.Platform.l2.Arch.Memory.size_bytes;
      string_of_int dma.Arch.Memory.setup_cycles;
      string_of_int dma.Arch.Memory.per_chunk_cycles;
      string_of_int dma.Arch.Memory.bytes_per_cycle;
      string_of_int p.Arch.Platform.freq_mhz;
    ]

let config_fingerprint cfg =
  Util.Key.encode
    [
      platform_fingerprint cfg.platform;
      (match cfg.memory_strategy with
      | Dory.Memplan.Reuse -> "reuse"
      | Dory.Memplan.No_reuse -> "no-reuse");
      string_of_bool cfg.double_buffer;
      string_of_bool cfg.use_pe_heuristics;
      string_of_bool cfg.use_dma_heuristic;
      (match cfg.autotune_budget with None -> "-" | Some n -> string_of_int n);
      string_of_bool cfg.exhaustive_tiling;
      Util.Key.encode cfg.degraded_targets;
      (match cfg.segment_budget_cycles with
      | None -> "-"
      | Some n -> string_of_int n);
    ]

let graph_digest graph =
  Digest.to_hex (Digest.string (Marshal.to_string graph [ Marshal.No_sharing ]))

let artifact_store_key cfg graph =
  Util.Key.encode
    [ code_version; "artifact"; config_fingerprint cfg; graph_digest graph ]

(* The persisted subset of [artifact]. *)
type stored_artifact = {
  st_program : Sim.Program.t;
  st_size : Codegen.Size.report;
  st_layers : layer_info list;
  st_c_source : string;
  st_l2_static_bytes : int;
  st_l2_arena_bytes : int;
  st_tuning_trials : int;
  st_solver : solver_stats;
  st_demotions : demotion list;
}

let artifact_payload a =
  Marshal.to_string
    {
      st_program = a.program;
      st_size = a.size;
      st_layers = a.layers;
      st_c_source = a.c_source;
      st_l2_static_bytes = a.l2_static_bytes;
      st_l2_arena_bytes = a.l2_arena_bytes;
      st_tuning_trials = a.tuning_trials;
      st_solver = a.solver;
      st_demotions = a.demotions;
    }
    [ Marshal.No_sharing ]

let artifact_digest a = Digest.to_hex (Digest.string (artifact_payload a))

let stored_of_bytes s =
  match (Marshal.from_string s 0 : stored_artifact) with
  | st -> Some st
  | exception _ -> None

let artifact_of_stored cfg st =
  {
    cfg;
    program = st.st_program;
    plan = Sim.Plan.build ~platform:cfg.platform st.st_program;
    size = st.st_size;
    layers = st.st_layers;
    c_source = st.st_c_source;
    l2_static_bytes = st.st_l2_static_bytes;
    l2_arena_bytes = st.st_l2_arena_bytes;
    tuning_trials = st.st_tuning_trials;
    solver = st.st_solver;
    demotions = st.st_demotions;
  }

(* One lowered execution unit, before buffer assignment. *)
type lowered =
  | LAccel of {
      accel : Arch.Accel.t;
      layer : L.t;
      schedule : Dory.Schedule.t;
      in_nodes : G.id list;
      out_node : G.id;
    }
  | LCpu of { kernel : Codegen.Fuse.kernel; in_nodes : G.id list; out_node : G.id }

let lowered_out = function
  | LAccel { out_node; _ } | LCpu { out_node; _ } -> out_node

let lowered_ins = function
  | LAccel { in_nodes; _ } | LCpu { in_nodes; _ } -> in_nodes

let targets_of platform =
  let n = List.length platform.Arch.Platform.accels in
  List.mapi
    (fun i (a : Arch.Accel.t) ->
      (* Untiled busy-cycle estimate: enough to rank accelerators per
         layer when several accept it (paper Sec. III-A). *)
      let estimate layer =
        let full = Arch.Tile.full layer in
        a.Arch.Accel.setup_cycles
        + a.Arch.Accel.compute_cycles layer full
        + a.Arch.Accel.weight_load_cycles layer full
      in
      {
        Byoc.Partition.name = a.Arch.Accel.accel_name;
        patterns = Byoc.Library.all;
        accept = a.Arch.Accel.supports;
        priority = n - i;
        estimate = Some estimate;
      })
    platform.Arch.Platform.accels

let region_nodes g output =
  match
    List.find_map (fun p -> Byoc.Pattern.matches g p ~at:output) Byoc.Library.all
  with
  | Some m -> m.Byoc.Pattern.matched
  | None -> [ output ]

let external_cpu_inputs g kernel_nodes =
  List.concat_map
    (fun id ->
      match G.node g id with
      | G.App { args; _ } ->
          List.filter
            (fun a ->
              (not (List.mem a kernel_nodes))
              && match G.node g a with G.Const _ -> false | _ -> true)
            args
      | G.Input _ | G.Const _ -> [])
    kernel_nodes
  |> List.sort_uniq compare

(* A fused CPU kernel is autotune-eligible when its anchor is a heavy
   conv/dense with constant weights: the tuner needs the layer geometry. *)
let tuneable_layer_of g (tys : Ir.Infer.ty array) (k : Codegen.Fuse.kernel) =
  match k.Codegen.Fuse.nodes with
  | [] -> None
  | anchor :: _ -> (
      match G.node g anchor with
      | G.App { op = Ir.Op.Conv2d p; args = [ data; w ] } -> (
          match G.node g w with
          | G.Const wt ->
              Some
                {
                  L.kind = L.Conv p;
                  fused_pool = None;
                  weights = Some wt;
                  bias = None;
                  shift = None;
                  relu = false;
                  in_shape = tys.(data).Ir.Infer.shape;
                  in2_shape = None;
                  out_shape = tys.(anchor).Ir.Infer.shape;
                  in_dtype = tys.(data).Ir.Infer.dtype;
                  out_dtype = Tensor.Dtype.I32;
                }
          | G.Input _ | G.App _ -> None)
      | G.App { op = Ir.Op.Dense; args = [ data; w ] } -> (
          match G.node g w with
          | G.Const wt ->
              Some
                {
                  L.kind = L.Dense;
                  fused_pool = None;
                  weights = Some wt;
                  bias = None;
                  shift = None;
                  relu = false;
                  in_shape = tys.(data).Ir.Infer.shape;
                  in2_shape = None;
                  out_shape = tys.(anchor).Ir.Infer.shape;
                  in_dtype = tys.(data).Ir.Infer.dtype;
                  out_dtype = Tensor.Dtype.I32;
                }
          | G.Input _ | G.App _ -> None)
      | G.App _ | G.Input _ | G.Const _ -> None)

(* TVM-style autotuning of the host kernels: measure schedule variants on
   the device model and scale each kernel's cycle estimate by the best
   found variant. The accelerated path is untouched — HTVM's argument is
   precisely that it needs none of this. *)
(* Each kernel tunes independently (seeded by its name, so results do not
   depend on scheduling) — fanned out across the pool. *)
let autotune_kernels pool cfg g tys kernels =
  match cfg.autotune_budget with
  | None -> (kernels, 0)
  | Some budget ->
      let tuned =
        Util.Pool.map pool
          (fun (k : Codegen.Fuse.kernel) ->
            match tuneable_layer_of g tys k with
            | None -> (k, 0)
            | Some layer ->
                let r =
                  Tune.Search.tune
                    ~seed:(Hashtbl.hash k.Codegen.Fuse.kernel_name)
                    ~budget ~device:Tune.Device.xpulpv2 layer
                in
                let factor =
                  float_of_int r.Tune.Search.best_cycles
                  /. float_of_int (max 1 r.Tune.Search.default_cycles)
                in
                ( {
                    k with
                    Codegen.Fuse.cycles =
                      max 1
                        (int_of_float
                           (Float.round (float_of_int k.Codegen.Fuse.cycles *. factor)));
                  },
                  r.Tune.Search.trials ))
          kernels
      in
      (List.map fst tuned, List.fold_left (fun acc (_, t) -> acc + t) 0 tuned)

let cpu_const_bytes g kernels =
  let ids =
    List.concat_map
      (fun (k : Codegen.Fuse.kernel) ->
        List.concat_map
          (fun id ->
            match G.node g id with G.App { args; _ } -> args | _ -> [])
          k.Codegen.Fuse.nodes)
      kernels
    |> List.sort_uniq compare
  in
  List.fold_left
    (fun acc id ->
      match G.node g id with G.Const t -> acc + Tensor.packed_bytes t | _ -> acc)
    0 ids

let compile_cold ?trace ?metrics ?store cfg graph =
  let ( let* ) = Result.bind in
  Util.Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  (* Wall-track phase gauges ride along with the trace spans. They are
     registered on first entry into each phase, so a registry must be
     fresh per compile (duplicate registration raises by design). *)
  let phase ?args name f =
    let finish =
      match metrics with
      | None -> fun () -> ()
      | Some reg ->
          let g =
            Metrics.gauge reg ~track:Metrics.Wall
              ~labels:[ ("phase", name) ]
              ~help:"Host seconds spent in one compile phase."
              "htvm_wall_compile_phase_seconds"
          in
          let t0 = Sys.time () in
          fun () -> Metrics.set g (Sys.time () -. t0)
    in
    let r = Trace.span trace ?args name f in
    finish ();
    r
  in
  let g = phase "simplify" (fun () -> Ir.Rewrite.simplify graph) in
  let platform = cfg.platform in
  let plan =
    phase "partition"
      ~args:[ ("platform", Trace.Json.Str platform.Arch.Platform.platform_name) ]
      (fun () -> Byoc.Partition.run g ~targets:(targets_of platform))
  in
  let tys = plan.Byoc.Partition.tys in
  let tiling_cfg =
    {
      Dory.Tiling.alpha = 1.0;
      use_pe_heuristics = cfg.use_pe_heuristics;
      use_dma_heuristic = cfg.use_dma_heuristic;
      double_buffer = cfg.double_buffer;
      l1_budget = platform.Arch.Platform.l1.Arch.Memory.size_bytes;
    }
  in
  (* Lower offloaded segments; segments their chosen target cannot carry
     descend a fallback ladder (every other healthy accelerator accepting
     the layer, in platform order, then the host path), each hop recorded
     as a structured demotion. The primary solves are pure, so they fan
     out across the pool (deduplicated through the cache first, when one
     is configured — lookups and insertions stay on this domain). The
     sequential pass below then consumes the outcomes in segment order,
     replaying each ["tiling.solve"] trace event from this domain, so
     parallel and cached runs stay bit-identical to sequential cold
     ones. *)
  let host_pool = ref [] in
  let accel_units = ref [] in
  let cache_hits = ref 0 in
  let cache_misses = ref 0 in
  let seg_outcomes = ref [] in
  let demotions = ref [] in
  phase "lower" (fun () ->
      let estimate (a : Arch.Accel.t) layer =
        let full = Arch.Tile.full layer in
        a.Arch.Accel.setup_cycles
        + a.Arch.Accel.compute_cycles layer full
        + a.Arch.Accel.weight_load_cycles layer full
      in
      (* The pre-solve rung checks: why a segment cannot stay on [a]
         before any tiling is attempted. [None] = the accelerator may
         try. Used both to build the pool's work list and to consume it,
         so the two passes agree segment by segment. *)
      let rung_block (a : Arch.Accel.t) layer =
        if List.mem a.Arch.Accel.accel_name cfg.degraded_targets then
          Some Degraded_target
        else
          match cfg.segment_budget_cycles with
          | Some budget when estimate a layer > budget ->
              Some
                (Over_budget
                   { estimated_cycles = estimate a layer; budget_cycles = budget })
          | _ -> None
      in
      let offloads =
        List.filter_map
          (function
            | Byoc.Partition.Offload { target; layer; _ } ->
                let accel = Arch.Platform.find_accel platform target in
                if rung_block accel layer = None then Some (accel, layer)
                else None
            | Byoc.Partition.Host _ -> None)
          plan.Byoc.Partition.segments
      in
      let solve (accel, layer) =
        Dory.Tiling.solve_stats ~exhaustive:cfg.exhaustive_tiling tiling_cfg accel
          layer
      in
      let solved =
        match cfg.solver_cache with
        | None when store = None -> Util.Pool.map pool solve offloads
        | None ->
            (* Store, no in-process cache: each task consults the layer
               tier individually — duplicates included — so the solver
               totals folded from [seg_outcomes] match an uncached cold
               compile exactly (a store hit replays the stored stats). *)
            let st = Option.get store in
            let looked =
              List.map
                (fun ((accel, layer) as task) ->
                  let skey =
                    layer_store_key
                      (Dory.Tiling_cache.signature tiling_cfg
                         ~accel:accel.Arch.Accel.accel_name layer)
                  in
                  (skey, store_find_outcome st skey, task))
                offloads
            in
            let fresh =
              List.filter_map
                (function k, None, task -> Some (k, task) | _ -> None)
                looked
            in
            let solved_fresh =
              Util.Pool.map pool (fun (_, task) -> solve task) fresh
            in
            List.iter2
              (fun (k, _) o -> Store.put st Store.Layer ~key:k (bytes_of_outcome o))
              fresh solved_fresh;
            let remaining = ref solved_fresh in
            List.map
              (fun (_, found, _) ->
                match found with
                | Some o -> o
                | None -> (
                    match !remaining with
                    | o :: rest ->
                        remaining := rest;
                        o
                    | [] -> assert false))
              looked
        | Some cache ->
            (* Deterministic accounting regardless of pool scheduling: a
               segment counts as a hit when its signature is already
               cached or an earlier segment of this compile is about to
               solve it; only distinct new signatures reach the pool. *)
            let keyed =
              List.map
                (fun ((accel, layer) as task) ->
                  ( Dory.Tiling_cache.signature tiling_cfg
                      ~accel:accel.Arch.Accel.accel_name layer,
                    task ))
                offloads
            in
            let pending = Hashtbl.create 16 in
            let fresh =
              List.filter_map
                (fun (key, task) ->
                  let hit =
                    Dory.Tiling_cache.find cache key <> None
                    || Hashtbl.mem pending key
                  in
                  Dory.Tiling_cache.note cache ~hit;
                  if hit then begin
                    incr cache_hits;
                    None
                  end
                  else begin
                    incr cache_misses;
                    Hashtbl.add pending key ();
                    Some (key, task)
                  end)
                keyed
            in
            (* In-process misses still get one shot at the layer tier of
               the persistent store before burning solver work; they keep
               counting as in-process misses either way, so the solver
               stats stay byte-identical between cold and warm runs. *)
            let from_store, to_solve =
              match store with
              | None -> ([], fresh)
              | Some st ->
                  List.partition_map
                    (fun (key, task) ->
                      match store_find_outcome st (layer_store_key key) with
                      | Some o -> Either.Left (key, o)
                      | None -> Either.Right (key, task))
                    fresh
            in
            List.iter
              (fun (key, o) -> Dory.Tiling_cache.add cache key o)
              from_store;
            let solved_fresh =
              Util.Pool.map pool (fun (_, task) -> solve task) to_solve
            in
            List.iter2
              (fun (key, _) outcome ->
                Dory.Tiling_cache.add cache key outcome;
                match store with
                | Some st ->
                    Store.put st Store.Layer ~key:(layer_store_key key)
                      (bytes_of_outcome outcome)
                | None -> ())
              to_solve solved_fresh;
            List.map
              (fun (key, _) ->
                match Dory.Tiling_cache.find cache key with
                | Some o -> o
                | None -> assert false)
              keyed
      in
      let next = ref solved in
      let take () =
        match !next with
        | o :: rest ->
            next := rest;
            o
        | [] -> assert false
      in
      List.iter
        (fun seg ->
          match seg with
          | Byoc.Partition.Host { id } -> host_pool := id :: !host_pool
          | Byoc.Partition.Offload { target; layer; inputs; output } ->
              let primary = Arch.Platform.find_accel platform target in
              let accept (a : Arch.Accel.t) sol =
                let schedule =
                  Dory.Schedule.build layer ~accel_name:a.Arch.Accel.accel_name
                    ~tile:sol.Dory.Tiling.tile ~double_buffer:cfg.double_buffer
                in
                accel_units :=
                  LAccel
                    { accel = a; layer; schedule; in_nodes = inputs; out_node = output }
                  :: !accel_units
              in
              (* The remaining rungs of the ladder after the partition's
                 choice: healthy accelerators accepting the layer, in
                 platform order, then the host. *)
              let alternates =
                List.filter
                  (fun (a : Arch.Accel.t) ->
                    a.Arch.Accel.accel_name <> target
                    && a.Arch.Accel.supports layer
                    && rung_block a layer = None)
                  platform.Arch.Platform.accels
              in
              let next_name = function
                | (a : Arch.Accel.t) :: _ -> a.Arch.Accel.accel_name
                | [] -> "cpu"
              in
              let demote ~from ~to_ reason =
                demotions :=
                  {
                    d_output = output;
                    d_layer = L.describe layer;
                    d_from = from;
                    d_to = to_;
                    d_reason = reason;
                  }
                  :: !demotions
              in
              let rec descend = function
                | [] -> host_pool := region_nodes g output @ !host_pool
                | (a : Arch.Accel.t) :: rest -> (
                    let outcome =
                      Dory.Tiling.solve_stats ~exhaustive:cfg.exhaustive_tiling
                        tiling_cfg a layer
                    in
                    Dory.Tiling.trace_solve_event trace a layer outcome;
                    seg_outcomes := outcome :: !seg_outcomes;
                    match outcome.Dory.Tiling.result with
                    | Ok sol -> accept a sol
                    | Error inf ->
                        demote ~from:a.Arch.Accel.accel_name
                          ~to_:(next_name rest) (Infeasible inf);
                        descend rest)
              in
              (match rung_block primary layer with
              | Some reason ->
                  demote ~from:target ~to_:(next_name alternates) reason;
                  descend alternates
              | None -> (
                  let outcome = take () in
                  Dory.Tiling.trace_solve_event trace primary layer outcome;
                  seg_outcomes := outcome :: !seg_outcomes;
                  match outcome.Dory.Tiling.result with
                  | Ok sol -> accept primary sol
                  | Error inf ->
                      demote ~from:target ~to_:(next_name alternates)
                        (Infeasible inf);
                      descend alternates)))
        plan.Byoc.Partition.segments);
  let solver =
    List.fold_left
      (fun acc (o : Dory.Tiling.outcome) ->
        let s = o.Dory.Tiling.stats in
        {
          acc with
          ss_explored = acc.ss_explored + s.Dory.Tiling.explored;
          ss_infeasible =
            acc.ss_infeasible + (s.Dory.Tiling.explored - s.Dory.Tiling.feasible);
          ss_pruned = acc.ss_pruned + s.Dory.Tiling.pruned;
        })
      {
        ss_explored = 0;
        ss_infeasible = 0;
        ss_pruned = 0;
        ss_cache_hits = !cache_hits;
        ss_cache_misses = !cache_misses;
      }
      !seg_outcomes
  in
  (match cfg.solver_cache with
  | Some cache ->
      Trace.event trace ~cat:"dory"
        ~args:
          [
            ("hits", Trace.Json.Int !cache_hits);
            ("misses", Trace.Json.Int !cache_misses);
            ("entries", Trace.Json.Int (Dory.Tiling_cache.length cache));
          ]
        "tiling_cache.stats"
  | None -> ());
  (* Solver totals are a pure function of config + graph (parallel solves
     replay in segment order), so they live on the deterministic track. *)
  (match metrics with
  | None -> ()
  | Some reg ->
      let c name help v = Metrics.inc (Metrics.counter reg ~help name) v in
      c "htvm_compile_solver_explored_total" "Tiling candidates explored."
        solver.ss_explored;
      c "htvm_compile_solver_infeasible_total"
        "Tiling candidates rejected as infeasible." solver.ss_infeasible;
      c "htvm_compile_solver_pruned_total"
        "Tiling candidates pruned before full evaluation." solver.ss_pruned;
      c "htvm_compile_cache_hits_total" "Tiling-cache hits this compile."
        solver.ss_cache_hits;
      c "htvm_compile_cache_misses_total" "Tiling-cache misses this compile."
        solver.ss_cache_misses);
  let kernels =
    phase "fuse" (fun () ->
        Codegen.Fuse.kernels ~cpu:platform.Arch.Platform.cpu
          ~size:platform.Arch.Platform.size_model g tys ~host_nodes:!host_pool)
  in
  let kernels, tuning_trials =
    phase "autotune" (fun () -> autotune_kernels pool cfg g tys kernels)
  in
  if tuning_trials > 0 then
    Trace.event trace ~cat:"tune"
      ~args:[ ("trials", Trace.Json.Int tuning_trials) ]
      "autotune.trials";
  let cpu_units =
    List.map
      (fun (k : Codegen.Fuse.kernel) ->
        let nodes = k.Codegen.Fuse.nodes in
        let out_node = List.nth nodes (List.length nodes - 1) in
        LCpu { kernel = k; in_nodes = external_cpu_inputs g nodes; out_node })
      kernels
  in
  let units =
    List.sort (fun a b -> compare (lowered_out a) (lowered_out b))
      (!accel_units @ cpu_units)
  in
  let* () =
    match units with
    | [] -> Error Empty_graph
    | _ ->
        if lowered_out (List.nth units (List.length units - 1)) <> G.output g then
          Error (Internal "graph output is not produced by any step")
        else Ok ()
  in
  (* Buffers: one per graph input and one per unit output. *)
  let buf_of_node = Hashtbl.create 16 in
  let buffers = ref [] in
  let fresh_buffer node =
    let id = Hashtbl.length buf_of_node in
    let ty = tys.(node) in
    Hashtbl.add buf_of_node node id;
    buffers :=
      {
        P.buf_id = id;
        b_dtype = ty.Ir.Infer.dtype;
        b_shape = ty.Ir.Infer.shape;
        l2_offset = 0 (* placed below *);
      }
      :: !buffers;
    id
  in
  let input_buffers =
    List.map (fun (id, name, _, _) -> (name, fresh_buffer id)) (G.inputs g)
  in
  List.iter (fun u -> ignore (fresh_buffer (lowered_out u))) units;
  let* () =
    (* Every step input must resolve to a buffer (i.e. not a constant). *)
    let ok =
      List.for_all
        (fun u -> List.for_all (fun n -> Hashtbl.mem buf_of_node n) (lowered_ins u))
        units
    in
    if ok then Ok () else Error (Internal "a kernel input is not a planned buffer")
  in
  (* Static L2 region: accelerator weight and bias images. *)
  let images = ref [] in
  let cursor = ref 0 in
  let place tensor =
    let off = !cursor in
    images := (off, tensor) :: !images;
    cursor := Util.Ints.round_up (off + Tensor.sim_bytes tensor) 4;
    off
  in
  let steps =
    List.map
      (fun u ->
        match u with
        | LAccel { layer; schedule; in_nodes; out_node; accel = _ } ->
            let weights_offset =
              match layer.L.weights with Some w -> place w | None -> -1
            in
            let bias_offset = match layer.L.bias with Some b -> place b | None -> -1 in
            P.Accel
              {
                accel_name = schedule.Dory.Schedule.accel_name;
                schedule;
                ins = List.map (Hashtbl.find buf_of_node) in_nodes;
                out = Hashtbl.find buf_of_node out_node;
                weights_offset;
                bias_offset;
              }
        | LCpu { kernel; in_nodes; out_node } ->
            P.Cpu
              {
                kernel_name = kernel.Codegen.Fuse.kernel_name;
                nodes = kernel.Codegen.Fuse.nodes;
                ins = List.map (fun n -> (n, Hashtbl.find buf_of_node n)) in_nodes;
                out = Hashtbl.find buf_of_node out_node;
                cycles = kernel.Codegen.Fuse.cycles;
              }
      )
      units
  in
  let l2_static_bytes = !cursor in
  (* Binary size accounting. *)
  let accel_layer_list =
    List.filter_map
      (function
        | LAccel { layer; schedule; _ } ->
            Some
              ( layer,
                schedule.Dory.Schedule.accel_name,
                Dory.Schedule.is_tiled schedule )
        | LCpu _ -> None)
      units
  in
  let size =
    Codegen.Size.report ~size_model:platform.Arch.Platform.size_model
      ~cpu_kernels:kernels ~accel_layers:accel_layer_list
      ~cpu_const_bytes:(cpu_const_bytes g kernels)
  in
  (* Activation arena: what is left of L2 after the resident weight images
     and the binary's code + CPU constant sections. *)
  let l2_size = platform.Arch.Platform.l2.Arch.Memory.size_bytes in
  let code_bytes =
    List.fold_left
      (fun acc (s : Codegen.Size.section) ->
        if s.Codegen.Size.section_name = "accelerator constants" then acc
        else acc + s.Codegen.Size.bytes)
      0 size.Codegen.Size.sections
  in
  let arena_capacity = l2_size - l2_static_bytes - code_bytes in
  let* () =
    if arena_capacity <= 0 then
      Error
        (Out_of_memory
           {
             oom_region = "L2 static";
             oom_needed_bytes = l2_static_bytes + code_bytes;
             oom_capacity_bytes = l2_size;
             oom_detail =
               Printf.sprintf
                 "out of memory: weights (%d B) and code (%d B) leave no L2 for \
                  activations"
                 l2_static_bytes code_bytes;
           })
    else Ok ()
  in
  (* Liveness over step indices: inputs are born before step 0; the network
     output stays live to the end. One indexed pass over the units fills
     both the birth and the last-use table. *)
  let n_steps = List.length steps in
  let death = Hashtbl.create 16 in
  let birth_of = Hashtbl.create 16 in
  let note_use buf step_idx =
    let cur = try Hashtbl.find death buf with Not_found -> -1 in
    Hashtbl.replace death buf (max cur step_idx)
  in
  List.iter (fun (_, id) -> Hashtbl.replace birth_of id 0) input_buffers;
  List.iteri
    (fun i u ->
      Hashtbl.replace birth_of (Hashtbl.find buf_of_node (lowered_out u)) (i + 1);
      List.iter (fun n -> note_use (Hashtbl.find buf_of_node n) (i + 1)) (lowered_ins u))
    units;
  let requests =
    List.map
      (fun (b : P.buffer) ->
        let birth =
          match Hashtbl.find_opt birth_of b.P.buf_id with Some i -> i | None -> 0
        in
        let death =
          let d = try Hashtbl.find death b.P.buf_id with Not_found -> birth in
          if
            b.P.buf_id = Hashtbl.find buf_of_node (G.output g)
          then n_steps + 1
          else max d birth
        in
        {
          Dory.Memplan.buffer_id = b.P.buf_id;
          bytes = P.buffer_bytes b;
          birth;
          death;
        })
      (List.rev !buffers)
  in
  let* placed =
    phase "memplan"
      ~args:[ ("buffers", Trace.Json.Int (List.length requests)) ]
      (fun () ->
        Dory.Memplan.plan cfg.memory_strategy ~capacity:arena_capacity ~align:4
          requests)
    |> Result.map_error (function
         | Dory.Memplan.Out_of_memory { oom_bytes; oom_offset; oom_capacity; _ } as e
           ->
             Out_of_memory
               {
                 oom_region = "L2 arena";
                 oom_needed_bytes = oom_offset + oom_bytes;
                 oom_capacity_bytes = oom_capacity;
                 oom_detail = Dory.Memplan.error_to_string e;
               }
         | Dory.Memplan.Never_fits { nf_bytes; nf_capacity; _ } as e ->
             (* One activation buffer alone overflows the empty arena: a
                structured resource diagnosis, not a packing failure — no
                strategy (or segment demotion) could ever place it. *)
             Out_of_memory
               {
                 oom_region = "L2 arena";
                 oom_needed_bytes = nf_bytes;
                 oom_capacity_bytes = nf_capacity;
                 oom_detail = Dory.Memplan.error_to_string e;
               }
         | Dory.Memplan.Malformed_request _ as e ->
             Internal (Dory.Memplan.error_to_string e))
  in
  Trace.event trace ~cat:"memplan"
    ~args:
      [
        ("arena_capacity", Trace.Json.Int arena_capacity);
        ("peak_bytes", Trace.Json.Int placed.Dory.Memplan.peak_bytes);
      ]
    "memplan.peak";
  let buffers =
    List.map
      (fun (b : P.buffer) ->
        let p = Dory.Memplan.find placed b.P.buf_id in
        { b with P.l2_offset = l2_static_bytes + p.Dory.Memplan.offset })
      (List.rev !buffers)
  in
  let program =
    {
      P.graph = g;
      buffers;
      steps;
      input_buffers;
      output_buffer = Hashtbl.find buf_of_node (G.output g);
      weight_images = List.rev !images;
      l2_activation_peak = placed.Dory.Memplan.peak_bytes;
    }
  in
  let* () = Result.map_error (fun e -> Internal e) (P.validate program) in
  let schedules =
    List.mapi (fun i s -> (i, s)) steps
    |> List.filter_map (fun (i, s) ->
           match s with P.Accel { schedule; _ } -> Some (i, schedule) | P.Cpu _ -> None)
  in
  let layers =
    List.mapi
      (fun i u ->
        match u with
        | LAccel { layer; schedule; _ } ->
            {
              li_index = i;
              li_target = schedule.Dory.Schedule.accel_name;
              li_desc = L.describe layer;
              li_tiled = Dory.Schedule.is_tiled schedule;
              li_tile = Some schedule.Dory.Schedule.nominal;
            }
        | LCpu { kernel; _ } ->
            {
              li_index = i;
              li_target = "cpu";
              li_desc = kernel.Codegen.Fuse.kernel_name;
              li_tiled = false;
              li_tile = None;
            })
      units
  in
  (match metrics with
  | None -> ()
  | Some reg ->
      Metrics.inc
        (Metrics.counter reg ~help:"Segments demoted off their chosen target."
           "htvm_compile_demotions_total")
        (List.length !demotions);
      Metrics.inc
        (Metrics.counter reg ~help:"Autotuning trials measured on host kernels."
           "htvm_compile_tuning_trials_total")
        tuning_trials);
  Ok
    {
      cfg;
      program;
      plan = phase "plan" (fun () -> Sim.Plan.build ~platform:cfg.platform program);
      size;
      layers;
      c_source = phase "emit" (fun () -> Dory.Emit.emit_network schedules);
      l2_static_bytes;
      l2_arena_bytes = arena_capacity;
      tuning_trials;
      solver;
      demotions = List.rev !demotions;
    }

(* Artifact-tier front door. A verified hit skips every compile phase:
   the stored program/report is replayed, the execution plan is rebuilt,
   and the compile counters are registered from the stored solver stats —
   so the warm report matches the cold one modulo the process-wide
   solver-work counters that no work was done to advance. Any decode
   failure (or digest/header mismatch inside the store) falls back to a
   cold compile that overwrites the entry. *)
let compile ?trace ?metrics ?store cfg graph =
  match store with
  | None -> compile_cold ?trace ?metrics cfg graph
  | Some st -> (
      let key = artifact_store_key cfg graph in
      let recompute () =
        let r = compile_cold ?trace ?metrics ~store:st cfg graph in
        (match r with
        | Ok a -> Store.put st Store.Artifact ~key (artifact_payload a)
        | Error _ -> ());
        r
      in
      match Store.find st Store.Artifact ~key with
      | None -> recompute ()
      | Some payload -> (
          match stored_of_bytes payload with
          | None ->
              Store.invalidate st Store.Artifact ~key;
              recompute ()
          | Some stored ->
              Trace.event trace ~cat:"store"
                ~args:
                  [
                    ("tier", Trace.Json.Str "artifact");
                    ("digest", Trace.Json.Str (Digest.to_hex (Digest.string payload)));
                  ]
                "store.artifact_hit";
              (match metrics with
              | None -> ()
              | Some reg ->
                  let c name help v =
                    Metrics.inc (Metrics.counter reg ~help name) v
                  in
                  let s = stored.st_solver in
                  c "htvm_compile_solver_explored_total"
                    "Tiling candidates explored." s.ss_explored;
                  c "htvm_compile_solver_infeasible_total"
                    "Tiling candidates rejected as infeasible." s.ss_infeasible;
                  c "htvm_compile_solver_pruned_total"
                    "Tiling candidates pruned before full evaluation." s.ss_pruned;
                  c "htvm_compile_cache_hits_total"
                    "Tiling-cache hits this compile." s.ss_cache_hits;
                  c "htvm_compile_cache_misses_total"
                    "Tiling-cache misses this compile." s.ss_cache_misses;
                  c "htvm_compile_demotions_total"
                    "Segments demoted off their chosen target."
                    (List.length stored.st_demotions);
                  c "htvm_compile_tuning_trials_total"
                    "Autotuning trials measured on host kernels."
                    stored.st_tuning_trials);
              Ok (artifact_of_stored cfg stored)))

let run ?trace ?faults ?retry_budget ?(use_plan = true) artifact ~inputs =
  let plan = if use_plan then Some artifact.plan else None in
  Sim.Machine.run ~platform:artifact.cfg.platform ?trace ?faults ?retry_budget
    ?plan artifact.program ~inputs

let full_cycles (r : Sim.Machine.report) = r.Sim.Machine.totals.Sim.Counters.wall

let peak_cycles (r : Sim.Machine.report) =
  let t = r.Sim.Machine.totals in
  Sim.Counters.peak t + t.Sim.Counters.cpu_compute

let latency_ms cfg cycles = Arch.Platform.ms_of_cycles cfg.platform cycles
