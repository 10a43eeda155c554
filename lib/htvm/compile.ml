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
  degraded_targets : string list;
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
    degraded_targets = [];
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
}

type demotion_reason =
  | Degraded_target
  | Infeasible of Dory.Tiling.infeasible

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

let is_resource_error = function
  | Out_of_memory _ | No_feasible_tile _ -> true
  | Empty_graph | Internal _ -> false

(* ---- persistent store integration ----

   Two tiers, both holding compile *decisions*, never compiled bytes.
   The layer tier maps a tiling-problem signature to its
   [Dory.Tiling.outcome], stats included, so a warm solve replays the
   exact trace payload and solver totals of a cold one. The artifact
   tier maps a structure+config+code-version digest to every answer one
   compile gave its solver and tuner (see [decisions] below); a hit
   replays them through the ordinary pipeline.

   Every payload is an explicit [Util.Key] field list: ints in decimal,
   floats in hex ([%h], exact), variants as a leading tag field, nested
   values as one field holding their own encoding. Decoding is strict: a
   payload is accepted only in the exact form its encoder writes, so
   truncated, extended, retagged or misspelt bytes are rejected, never
   misread. [code_version] is folded into every key; a change to the
   encoding (pinned by a fixture test) must bump it, so entries written
   by older code read as clean misses. *)

let code_version = "htvm-code-v3"

exception Malformed

let fields s = match Util.Key.decode s with Some l -> l | None -> raise Malformed
let int = int_of_string
let ints = List.map string_of_int

let strict encode parse s =
  match parse s with
  | v when String.equal (encode v) s -> Some v
  | _ -> None
  | exception (Malformed | Failure _ | Invalid_argument _) -> None

let encode_outcome (o : Dory.Tiling.outcome) =
  let s = o.Dory.Tiling.stats in
  let stats = ints [ s.Dory.Tiling.explored; s.Dory.Tiling.feasible; s.Dory.Tiling.pruned ] in
  Util.Key.encode
    (match o.Dory.Tiling.result with
    | Ok sol ->
        let t = sol.Dory.Tiling.tile in
        ("ok" :: ints Arch.Tile.[ t.c; t.k; t.oy; t.ox; t.iy; t.ix ])
        @ [
            Printf.sprintf "%h" sol.Dory.Tiling.objective;
            Printf.sprintf "%h" sol.Dory.Tiling.mem_utilization;
            string_of_bool sol.Dory.Tiling.tiled;
            string_of_int sol.Dory.Tiling.tile_count;
          ]
        @ stats
    | Error inf ->
        [ "error"; inf.Dory.Tiling.inf_layer; inf.Dory.Tiling.inf_accel;
          string_of_int inf.Dory.Tiling.inf_l1_budget ]
        @ stats)

let parse_outcome s =
  let stats e f p = { Dory.Tiling.explored = int e; feasible = int f; pruned = int p } in
  match fields s with
  | [ "ok"; c; k; oy; ox; iy; ix; obj; util; tiled; count; e; f; p ] ->
      let tile =
        { Arch.Tile.c = int c; k = int k; oy = int oy; ox = int ox; iy = int iy; ix = int ix }
      in
      {
        Dory.Tiling.result =
          Ok
            {
              Dory.Tiling.tile;
              objective = float_of_string obj;
              mem_utilization = float_of_string util;
              tiled = bool_of_string tiled;
              tile_count = int count;
            };
        stats = stats e f p;
      }
  | [ "error"; layer; accel; budget; e; f; p ] ->
      {
        Dory.Tiling.result =
          Error
            { Dory.Tiling.inf_layer = layer; inf_accel = accel; inf_l1_budget = int budget };
        stats = stats e f p;
      }
  | _ -> raise Malformed

let decode_outcome = strict encode_outcome parse_outcome

let encode_tune (r : Tune.Search.result) =
  let b = r.Tune.Search.best in
  Util.Key.encode
    (Tune.Sched.order_to_string b.Tune.Sched.order
    :: ints
         [ b.Tune.Sched.tile_k; b.Tune.Sched.tile_x; b.Tune.Sched.vector;
           b.Tune.Sched.unroll; r.Tune.Search.best_cycles;
           r.Tune.Search.default_cycles; r.Tune.Search.trials ])

let parse_tune s =
  match fields s with
  | [ order; tile_k; tile_x; vector; unroll; best; default; trials ] ->
      let order =
        match
          List.find_opt
            (fun o -> Tune.Sched.order_to_string o = order)
            Tune.Sched.all_orders
        with
        | Some o -> o
        | None -> raise Malformed
      in
      {
        Tune.Search.best =
          { Tune.Sched.order; tile_k = int tile_k; tile_x = int tile_x;
            vector = int vector; unroll = int unroll };
        best_cycles = int best;
        default_cycles = int default;
        trials = int trials;
      }
  | _ -> raise Malformed

(* A question (the signature of what was asked) with its answer. *)
let encode_pair encode (q, a) = Util.Key.encode [ q; encode a ]

let parse_pair parse s =
  match fields s with [ q; a ] -> (q, parse a) | _ -> raise Malformed

(* The answers one compile gave its solver and tuner, in the order the
   pipeline asked: each tiling outcome the lower phase used, under its
   [Dory.Tiling.signature], and each tuned kernel's search result,
   under its kernel name, budget and layer signature. Together with the
   solver totals they are all a compile decides that costs search work;
   everything else is recomputed from the graph. *)
type decisions = {
  solves : (string * Dory.Tiling.outcome) list;
  tunes : (string * Tune.Search.result) list;
  stats : solver_stats;
}

let encode_decisions d =
  let s = d.stats in
  Util.Key.encode
    [
      Util.Key.encode (ints [ s.ss_explored; s.ss_infeasible; s.ss_pruned ]);
      Util.Key.encode (List.map (encode_pair encode_outcome) d.solves);
      Util.Key.encode (List.map (encode_pair encode_tune) d.tunes);
    ]

let decode_decisions =
  strict encode_decisions (fun s ->
      match fields s with
      | [ stats; solves; tunes ] ->
          let stats =
            match List.map int (fields stats) with
            | [ ss_explored; ss_infeasible; ss_pruned ] ->
                { ss_explored; ss_infeasible; ss_pruned }
            | _ -> raise Malformed
          in
          {
            solves = List.map (parse_pair parse_outcome) (fields solves);
            tunes = List.map (parse_pair parse_tune) (fields tunes);
            stats;
          }
      | _ -> raise Malformed)

(* A replay that asks a question other than the recorded one, or leaves
   a recorded answer unused, aborts: the entry is a hint, never an
   answer to a different question. *)
exception Replay_mismatch

(* Where one kind of answer comes from. [Unrecorded]: computed, and the
   questions are never rendered (no store). [Record]: computed and kept,
   most recent first, for the artifact tier. [Replay]: handed out from an
   entry, in order. *)
type 'a ledger =
  | Unrecorded
  | Record of (string * 'a) list ref
  | Replay of (string * 'a) list ref

let ask ledger question fresh =
  match ledger with
  | Unrecorded -> fresh ()
  | Record r ->
      let a = fresh () in
      r := (question (), a) :: !r;
      a
  | Replay r -> (
      match !r with
      | (q, a) :: rest when String.equal q (question ()) ->
          r := rest;
          a
      | _ -> raise Replay_mismatch)

(* The ledger's questions and answers in asking order. *)
let close = function
  | Unrecorded -> []
  | Record r -> List.rev !r
  | Replay { contents = [] } -> []
  | Replay _ -> raise Replay_mismatch

(* Hands out a list's elements one call at a time. *)
let cursor l =
  let rest = ref l in
  fun () ->
    match !rest with
    | x :: tl ->
        rest := tl;
        x
    | [] -> invalid_arg "Compile.cursor: exhausted"

let layer_store_key signature =
  Util.Key.encode [ code_version; "layer"; signature ]

(* Verified layer-tier lookup: an entry that fails to decode, or answers
   a different signature than its key names, is invalidated so it cannot
   be served again. *)
let store_find_outcome st signature =
  let key = layer_store_key signature in
  match Store.find st Store.Layer ~key with
  | None -> None
  | Some payload -> (
      match strict (encode_pair encode_outcome) (parse_pair parse_outcome) payload with
      | Some (q, o) when String.equal q signature -> Some o
      | _ ->
          Store.invalidate st Store.Layer ~key;
          None)

let store_put_outcome st signature o =
  Store.put st Store.Layer ~key:(layer_store_key signature)
    (encode_pair encode_outcome (signature, o))

(* Every config field that can influence the compiled artifact. [jobs]
   is excluded on purpose: compilation is deterministic in it (enforced
   by the test suite), so it must not fragment the key space. The
   platform name alone does not identify the hardware: every
   [Platform.with_accels] variant and every shrunken L1 keeps the base
   platform's name, so its accelerators (in order), memory sizes, DMA
   cost model and clock are part of the key too. *)
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
      Util.Key.encode cfg.degraded_targets;
    ]

(* Decisions depend on the graph's structure, not on constant values:
   every node is digested, but each constant only as its dtype and
   shape, so weight variants of one network share an entry (a replay
   still checks every question, so a constant that does steer a
   decision, like a requantization shift, shows up as a mismatch). *)
let graph_digest graph =
  let skeleton =
    List.map
      (fun id ->
        match G.node graph id with
        | G.Const t -> Either.Left (Tensor.dtype t, Tensor.shape t)
        | (G.Input _ | G.App _) as n -> Either.Right n)
      (G.node_ids graph)
  in
  Digest.to_hex
    (Digest.string (Marshal.to_string (G.output graph, skeleton) [ Marshal.No_sharing ]))

let artifact_store_key cfg graph =
  Util.Key.encode
    [ code_version; "artifact"; config_fingerprint cfg; graph_digest graph ]

(* The artifact's canonical form: every field but [cfg] and the derived
   plan, as one [No_sharing] marshal. Only comparisons are contracts
   (cold = warm, store = no store, any job count); a change to a
   digested type moves every absolute value. *)
let artifact_digest a =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( a.program,
            a.size,
            a.layers,
            a.c_source,
            a.l2_static_bytes,
            a.l2_arena_bytes,
            a.tuning_trials,
            a.solver,
            a.demotions )
          [ Marshal.No_sharing ]))

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
   depend on scheduling) — fanned out across the pool, unless the
   results are replayed. *)
let autotune_kernels pool cfg g tys tunes kernels =
  match cfg.autotune_budget with
  | None -> (kernels, 0)
  | Some budget ->
      let candidates = List.map (fun k -> (k, tuneable_layer_of g tys k)) kernels in
      let tune ((k : Codegen.Fuse.kernel), layer) =
        Tune.Search.tune
          ~seed:(Hashtbl.hash k.Codegen.Fuse.kernel_name)
          ~budget ~device:Tune.Device.xpulpv2 layer
      in
      let fresh =
        match tunes with
        | Replay _ -> []
        | Unrecorded | Record _ ->
            Util.Pool.map pool tune
              (List.filter_map (fun (k, l) -> Option.map (fun l -> (k, l)) l) candidates)
      in
      let next = cursor fresh in
      let tuned =
        List.map
          (fun ((k : Codegen.Fuse.kernel), layer) ->
            match layer with
            | None -> (k, 0)
            | Some layer ->
                let question () =
                  Util.Key.encode
                    [ k.Codegen.Fuse.kernel_name; string_of_int budget; Ir.Layer.signature layer ]
                in
                let r = ask tunes question next in
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
          candidates
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

(* One pass of the pipeline, simplify through emit and the plan build.
   Its solver and tuner answers come from the ledgers: computed (and,
   with a store, recorded) on a cold compile, handed out from an entry's
   [decisions] on a warm one, which then consults neither the solver,
   the tuner nor the layer tier. [defer], when given, receives each
   metric registration in order, for the caller to apply once the pass
   is over. *)
let compile_cold ?trace ?defer ?store ?replay cfg graph =
  let ( let* ) = Result.bind in
  Util.Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  (* Wall-track phase gauges ride along with the trace spans. *)
  let phase ?args name f =
    match defer with
    | None -> Trace.span trace ?args name f
    | Some defer ->
        let t0 = Sys.time () in
        let r = Trace.span trace ?args name f in
        let dt = Sys.time () -. t0 in
        defer (fun reg ->
            Metrics.set
              (Metrics.gauge reg ~track:Metrics.Wall
                 ~labels:[ ("phase", name) ]
                 ~help:"Host seconds spent in one compile phase."
                 "htvm_wall_compile_phase_seconds")
              dt);
        r
  in
  let count name help v =
    Option.iter
      (fun defer -> defer (fun reg -> Metrics.inc (Metrics.counter reg ~help name) v))
      defer
  in
  let solves, tunes =
    match (replay, store) with
    | Some d, _ -> (Replay (ref d.solves), Replay (ref d.tunes))
    | None, Some _ -> (Record (ref []), Record (ref []))
    | None, None -> (Unrecorded, Unrecorded)
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
     out across the pool (after the layer-tier lookups, with a store —
     those stay on this domain). The sequential pass below then consumes
     the outcomes in segment order, replaying each ["tiling.solve"] trace
     event from this domain, so parallel and store-backed runs stay
     bit-identical to sequential storeless ones. A replay skips the
     fan-out: the sequential pass asks the entry for every outcome
     instead. *)
  let host_pool = ref [] in
  let accel_units = ref [] in
  let seg_outcomes = ref [] in
  let demotions = ref [] in
  phase "lower" (fun () ->
      (* A degraded target is skipped before any tiling is attempted.
         Used both to build the pool's work list and to consume it, so
         the two passes agree segment by segment. *)
      let degraded (a : Arch.Accel.t) =
        List.mem a.Arch.Accel.accel_name cfg.degraded_targets
      in
      let offloads =
        List.filter_map
          (function
            | Byoc.Partition.Offload { target; layer; _ } ->
                let accel = Arch.Platform.find_accel platform target in
                if degraded accel then None else Some (accel, layer)
            | Byoc.Partition.Host _ -> None)
          plan.Byoc.Partition.segments
      in
      let solve (accel, layer) = Dory.Tiling.solve_stats tiling_cfg accel layer in
      let signature ((accel : Arch.Accel.t), layer) =
        Dory.Tiling.signature tiling_cfg ~accel:accel.Arch.Accel.accel_name layer
      in
      let solved =
        match (solves, store) with
        | Replay _, _ -> []
        | _, None -> Util.Pool.map pool solve offloads
        | _, Some st ->
            (* Each task consults the layer tier individually — duplicates
               included — so the solver totals folded from [seg_outcomes]
               match a storeless compile exactly (a store hit replays the
               stored stats). *)
            let looked =
              List.map
                (fun task ->
                  let sg = signature task in
                  (sg, store_find_outcome st sg, task))
                offloads
            in
            let fresh =
              List.filter_map
                (function sg, None, task -> Some (sg, task) | _ -> None)
                looked
            in
            let solved_fresh =
              Util.Pool.map pool (fun (_, task) -> solve task) fresh
            in
            List.iter2 (fun (sg, _) o -> store_put_outcome st sg o) fresh solved_fresh;
            let next = cursor solved_fresh in
            List.map
              (fun (_, found, _) -> match found with Some o -> o | None -> next ())
              looked
      in
      let take = cursor solved in
      List.iter
        (fun seg ->
          match seg with
          | Byoc.Partition.Host { id } -> host_pool := id :: !host_pool
          | Byoc.Partition.Offload { target; layer; inputs; output } ->
              let primary = Arch.Platform.find_accel platform target in
              (* Every outcome the lower phase uses, primary or rung,
                 goes through the ledger in use order. *)
              let outcome_on (a : Arch.Accel.t) fresh =
                let outcome = ask solves (fun () -> signature (a, layer)) fresh in
                Dory.Tiling.trace_solve_event trace a layer outcome;
                seg_outcomes := outcome :: !seg_outcomes;
                outcome
              in
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
                    && not (degraded a))
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
                    match (outcome_on a (fun () -> solve (a, layer))).Dory.Tiling.result with
                    | Ok sol -> accept a sol
                    | Error inf ->
                        demote ~from:a.Arch.Accel.accel_name
                          ~to_:(next_name rest) (Infeasible inf);
                        descend rest)
              in
              if degraded primary then begin
                demote ~from:target ~to_:(next_name alternates) Degraded_target;
                descend alternates
              end
              else
                match (outcome_on primary take).Dory.Tiling.result with
                | Ok sol -> accept primary sol
                | Error inf ->
                    demote ~from:target ~to_:(next_name alternates) (Infeasible inf);
                    descend alternates)
        plan.Byoc.Partition.segments);
  let solves = close solves in
  (* A replay reports the entry's totals. *)
  let solver =
    match replay with
    | Some d -> d.stats
    | None ->
        List.fold_left
          (fun acc (o : Dory.Tiling.outcome) ->
            let s = o.Dory.Tiling.stats in
            {
              ss_explored = acc.ss_explored + s.Dory.Tiling.explored;
              ss_infeasible =
                acc.ss_infeasible + (s.Dory.Tiling.explored - s.Dory.Tiling.feasible);
              ss_pruned = acc.ss_pruned + s.Dory.Tiling.pruned;
            })
          { ss_explored = 0; ss_infeasible = 0; ss_pruned = 0 }
          !seg_outcomes
  in
  (* Solver totals are a pure function of config + graph (parallel solves
     replay in segment order), so they live on the deterministic track. *)
  count "htvm_compile_solver_explored_total" "Tiling candidates explored."
    solver.ss_explored;
  count "htvm_compile_solver_infeasible_total"
    "Tiling candidates rejected as infeasible." solver.ss_infeasible;
  count "htvm_compile_solver_pruned_total"
    "Tiling candidates pruned before full evaluation." solver.ss_pruned;
  let kernels =
    phase "fuse" (fun () ->
        Codegen.Fuse.kernels ~cpu:platform.Arch.Platform.cpu
          ~size:platform.Arch.Platform.size_model g tys ~host_nodes:!host_pool)
  in
  let kernels, tuning_trials =
    phase "autotune" (fun () -> autotune_kernels pool cfg g tys tunes kernels)
  in
  let tunes = close tunes in
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
  count "htvm_compile_demotions_total" "Segments demoted off their chosen target."
    (List.length !demotions);
  count "htvm_compile_tuning_trials_total"
    "Autotuning trials measured on host kernels." tuning_trials;
  let artifact =
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
  in
  Ok (artifact, { solves; tunes; stats = solver })

(* Artifact-tier front door. A verified hit runs the ordinary pipeline
   with the entry's answers standing in for the solver and the tuner, and
   the entry's solver totals become the artifact's, so the warm artifact
   is byte-identical to the cold one. An entry that fails to decode, or
   whose replay asks a question it did not record, is rejected: the
   compile recomputes cold and overwrites it. *)
let compile ?trace ?metrics ?store cfg graph =
  (* Metric registrations wait for the end of a pass, so a replay that
     aborts part-way leaves the registry as it found it. *)
  let pass ?store ?replay () =
    let pending = ref [] in
    let defer = Option.map (fun _ f -> pending := f :: !pending) metrics in
    let r = compile_cold ?trace ?defer ?store ?replay cfg graph in
    Option.iter (fun reg -> List.iter (fun f -> f reg) (List.rev !pending)) metrics;
    r
  in
  match store with
  | None -> Result.map fst (pass ())
  | Some st -> (
      let key = artifact_store_key cfg graph in
      let cold () =
        let r = pass ~store:st () in
        Result.iter
          (fun (_, d) -> Store.put st Store.Artifact ~key (encode_decisions d))
          r;
        Result.map fst r
      in
      let reject () =
        Store.invalidate st Store.Artifact ~key;
        cold ()
      in
      match Store.find st Store.Artifact ~key with
      | None -> cold ()
      | Some payload -> (
          match decode_decisions payload with
          | None -> reject ()
          | Some d -> (
              if Trace.enabled trace then
                Trace.event trace ~cat:"store"
                  ~args:
                    [
                      ("tier", Trace.Json.Str "artifact");
                      ("digest", Trace.Json.Str (Digest.to_hex (Digest.string payload)));
                    ]
                  "store.artifact_hit";
              match pass ~replay:d () with
              | r -> Result.map fst r
              | exception Replay_mismatch ->
                  Trace.event trace ~cat:"store" "store.replay_mismatch";
                  reject ())))

let run ?trace ?faults ?retry_budget ?(use_plan = true) artifact ~inputs =
  let plan = if use_plan then Some artifact.plan else None in
  Sim.Machine.run ~platform:artifact.cfg.platform ?trace ?faults ?retry_budget
    ?plan artifact.program ~inputs

let full_cycles (r : Sim.Machine.report) = r.Sim.Machine.totals.Sim.Counters.wall
let service_cycles a = Sim.Plan.service_cycles a.plan

let peak_cycles (r : Sim.Machine.report) =
  let t = r.Sim.Machine.totals in
  Sim.Counters.peak t + t.Sim.Counters.cpu_compute

let latency_ms cfg cycles = Arch.Platform.ms_of_cycles cfg.platform cycles
