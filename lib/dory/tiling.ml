module L = Ir.Layer
module Tile = Arch.Tile
module Accel = Arch.Accel

type config = {
  alpha : float;
  use_pe_heuristics : bool;
  use_dma_heuristic : bool;
  double_buffer : bool;
  l1_budget : int;
}

let default_config ~l1_budget =
  {
    alpha = 1.0;
    use_pe_heuristics = true;
    use_dma_heuristic = true;
    double_buffer = true;
    l1_budget;
  }

type solution = {
  tile : Tile.t;
  objective : float;
  mem_utilization : float;
  tiled : bool;
  tile_count : int;
}

let l1_bytes_needed cfg l tile =
  let per_buffer = Tile.bytes_in l tile + Tile.bytes_out l tile in
  (* A layer that runs as a single tile has nothing to overlap with, so
     double buffering only costs L1 when the layer is actually tiled. *)
  if cfg.double_buffer && not (Tile.is_full l tile) then 2 * per_buffer else per_buffer

let weight_mem_ok accel l tile =
  match accel.Accel.weight_mem_bytes with
  | None -> true (* charged against L1 below *)
  | Some cap -> Tile.bytes_weights l tile <= cap

let feasible cfg accel l tile =
  let act = l1_bytes_needed cfg l tile in
  let act =
    if accel.Accel.weight_mem_bytes = None then act + Tile.bytes_weights l tile else act
  in
  act <= cfg.l1_budget && weight_mem_ok accel l tile && accel.Accel.tile_ok l tile

let mem_utilization cfg accel l tile =
  let act = l1_bytes_needed cfg l tile in
  let act_frac = float_of_int act /. float_of_int cfg.l1_budget in
  match accel.Accel.weight_mem_bytes with
  | None -> act_frac
  | Some cap ->
      (* Weights have their own memory; give them a smaller say so the
         activation tiles dominate the Eq. 1 balance, as in DORY. *)
      act_frac +. (0.3 *. float_of_int (Tile.bytes_weights l tile) /. float_of_int cap)

(* "k_reuse" is part of the base objective (it compensates for weights
   living outside L1 in the Eq. 1 memory term), so it stays on in every
   Fig. 4 heuristic setting; "dma_iy" is Eq. 5; the rest are the
   PE-alignment terms of Eqs. 3-4. *)
let heuristic_enabled cfg (h : Accel.heuristic) =
  match h.Accel.h_name with
  | "dma_iy" -> cfg.use_dma_heuristic
  | "k_reuse" -> true
  | _ -> cfg.use_pe_heuristics

let objective cfg accel l tile =
  let mem = cfg.alpha *. mem_utilization cfg accel l tile in
  List.fold_left
    (fun acc h ->
      if heuristic_enabled cfg h then acc +. (h.Accel.beta *. h.Accel.score l tile)
      else acc)
    mem accel.Accel.heuristics

(* Search statistics surfaced through the trace: candidate tiles whose
   feasibility was tested, how many passed, and how many candidates the
   branch-and-bound column bound skipped without testing. *)
type stats = { explored : int; feasible : int; pruned : int }

type infeasible = { inf_layer : string; inf_accel : string; inf_l1_budget : int }

let infeasible_to_string { inf_layer; inf_accel; inf_l1_budget } =
  Printf.sprintf "no feasible tile for %s on %s within %d B of L1" inf_layer
    inf_accel inf_l1_budget

type outcome = { result : (solution, infeasible) result; stats : stats }

type counters = {
  mutable c_explored : int;
  mutable c_kept : int;
  mutable c_pruned : int;
}

(* Process-wide tally of feasibility tests actually performed — unlike the
   per-solve [stats] (which a cache replays verbatim on a hit), this only
   moves when the solver really runs, so benches can measure the work that
   pruning and caching avoid. Atomic: solves run on pool domains. *)
type work = { solves : int; tests : int }

let work_solves = Atomic.make 0
let work_tests = Atomic.make 0

let reset_solver_work () =
  Atomic.set work_solves 0;
  Atomic.set work_tests 0

let solver_work () =
  { solves = Atomic.get work_solves; tests = Atomic.get work_tests }

let tested counters cfg accel l tile =
  counters.c_explored <- counters.c_explored + 1;
  Atomic.incr work_tests;
  let ok = feasible cfg accel l tile in
  if ok then counters.c_kept <- counters.c_kept + 1;
  ok

(* Candidate tile extents for a dimension of size [n]: every value when the
   range is small, otherwise divisors, multiples of 16, and the extremes. *)
let candidates n =
  if n <= 96 then List.init n (fun i -> i + 1)
  else
    let div = Util.Ints.divisors n in
    let mult16 = List.init (n / 16) (fun i -> (i + 1) * 16) in
    List.sort_uniq compare (1 :: n :: (div @ mult16))

(* Largest feasible oy for fixed other dims; the objective is monotone in
   oy (memory use and H_DMA both grow, other terms constant), so the
   tallest feasible tile is optimal for that column of the search.

   Feasibility is monotone in oy below oy_max — activation bytes grow with
   the tile height and every registered [tile_ok] rule depends only on
   c/k/ox — so after probing the tallest candidate (which may enjoy the
   single-tile double-buffering exemption and must therefore be tested
   directly) the threshold is found by binary search instead of the
   exhaustive downward scan. *)
let best_oy ~exhaustive counters cfg accel l ~build ~oy_max =
  if exhaustive then
    let rec down oy =
      if oy < 1 then None
      else
        let tile = build oy in
        if tested counters cfg accel l tile then Some tile else down (oy - 1)
    in
    down oy_max
  else
    let top = build oy_max in
    if tested counters cfg accel l top then Some top
    else
      let rec bsearch lo hi best =
        if lo > hi then best
        else
          let mid = (lo + hi) / 2 in
          let tile = build mid in
          if tested counters cfg accel l tile then bsearch (mid + 1) hi (Some tile)
          else bsearch lo (mid - 1) best
      in
      bsearch 1 (oy_max - 1) None

(* Branch-and-bound: an upper bound on the objective any tile of a fixed
   (k, ox) column can reach. The memory term is evaluated at the tallest
   tile with double buffering charged unconditionally (>= the real cost of
   every tile in the column, including a full tile's single-buffer
   exemption); heuristic scores are constant or oy-monotone for every
   registered accelerator, so their value at the tallest tile dominates.
   The bound mirrors [objective]'s floating-point operation order so the
   comparison stays conservative under rounding. *)
let column_upper_bound cfg accel l tile =
  let per_buffer = Tile.bytes_in l tile + Tile.bytes_out l tile in
  let act = if cfg.double_buffer then 2 * per_buffer else per_buffer in
  let act =
    if accel.Accel.weight_mem_bytes = None then act + Tile.bytes_weights l tile else act
  in
  let act_frac = float_of_int act /. float_of_int cfg.l1_budget in
  let mem_ub =
    match accel.Accel.weight_mem_bytes with
    | None -> act_frac
    | Some cap ->
        act_frac +. (0.3 *. float_of_int (Tile.bytes_weights l tile) /. float_of_int cap)
  in
  List.fold_left
    (fun acc h ->
      if heuristic_enabled cfg h then acc +. (h.Accel.beta *. h.Accel.score l tile)
      else acc)
    (cfg.alpha *. mem_ub) accel.Accel.heuristics

let solution_of cfg accel l tile =
  {
    tile;
    objective = objective cfg accel l tile;
    mem_utilization = mem_utilization cfg accel l tile;
    tiled = not (Tile.is_full l tile);
    tile_count = Tile.count l tile;
  }

let search_counted ~exhaustive counters cfg accel l =
  let full = Tile.full l in
  let consider best tile =
    let obj = objective cfg accel l tile in
    match best with
    | Some (_, best_obj) when best_obj >= obj -> best
    | _ -> Some (tile, obj)
  in
  let best = ref None in
  let try_tile tile = best := consider !best tile in
  (match l.L.kind with
  | L.Dense ->
      List.iter
        (fun k ->
          let tile = Tile.for_layer l ~c:full.Tile.c ~k ~oy:1 ~ox:1 in
          if tested counters cfg accel l tile then try_tile tile)
        (candidates full.Tile.k)
  | L.Add ->
      List.iter
        (fun oy ->
          let tile = Tile.for_layer l ~c:full.Tile.c ~k:full.Tile.c ~oy ~ox:full.Tile.ox in
          if tested counters cfg accel l tile then try_tile tile)
        (candidates full.Tile.oy)
  | L.Conv _ | L.Pool _ ->
      let ks = candidates full.Tile.k in
      let oxs = candidates full.Tile.ox in
      List.iter
        (fun k ->
          List.iter
            (fun ox ->
              let build oy = Tile.for_layer l ~c:full.Tile.c ~k ~oy ~ox in
              (* A column whose bound cannot beat the incumbent would never
                 replace it (ties keep the earlier tile), so skip its
                 [oy_max] candidates without testing any of them. *)
              let dominated =
                (not exhaustive)
                &&
                match !best with
                | None -> false
                | Some (_, best_obj) ->
                    column_upper_bound cfg accel l (build full.Tile.oy) <= best_obj
              in
              if dominated then counters.c_pruned <- counters.c_pruned + full.Tile.oy
              else
                match
                  best_oy ~exhaustive counters cfg accel l ~build ~oy_max:full.Tile.oy
                with
                | Some tile -> try_tile tile
                | None -> ())
            oxs)
        ks);
  match !best with
  | None ->
      Error
        {
          inf_layer = L.describe l;
          inf_accel = accel.Accel.accel_name;
          inf_l1_budget = cfg.l1_budget;
        }
  | Some (tile, _) -> Ok (solution_of cfg accel l tile)

(* Everything [solve_stats] can observe: the layer's signature (geometry
   and dtypes, never weight/bias contents: cycle models, capacity rules
   and heuristics only read those), the accelerator and the solver
   config. Config floats are rendered in hex so distinct alphas can never
   collide.

   Fields are assembled with [Util.Key.encode] (length-prefixed), not
   concatenated with separators: the accelerator name is caller-supplied,
   so a name containing a separator could otherwise shift field
   boundaries and make two distinct (config, accel, layer) triples
   collide — and the persistent store would then serve the wrong tile. *)
let signature cfg ~accel l =
  Util.Key.encode
    [
      accel;
      Printf.sprintf "%h;%b;%b;%b;%d" cfg.alpha cfg.use_pe_heuristics
        cfg.use_dma_heuristic cfg.double_buffer cfg.l1_budget;
      L.signature l;
    ]

(* Tiling is only invoked when the whole layer does not fit (paper
   Sec. III-B / Fig. 4's grey region): a feasible full tile wins outright. *)
let solve_stats ?(exhaustive = false) cfg accel l =
  Atomic.incr work_solves;
  let counters = { c_explored = 0; c_kept = 0; c_pruned = 0 } in
  let result =
    let full = Tile.full l in
    if tested counters cfg accel l full then Ok (solution_of cfg accel l full)
    else search_counted ~exhaustive counters cfg accel l
  in
  {
    result;
    stats =
      {
        explored = counters.c_explored;
        feasible = counters.c_kept;
        pruned = counters.c_pruned;
      };
  }

let trace_solve_event trace accel l outcome =
  if Trace.enabled trace then begin
    let stats = outcome.stats in
    let common =
      [
        ("layer", Trace.Json.Str (L.describe l));
        ("accel", Trace.Json.Str accel.Accel.accel_name);
        ("explored", Trace.Json.Int stats.explored);
        ("feasible", Trace.Json.Int stats.feasible);
        ("infeasible", Trace.Json.Int (stats.explored - stats.feasible));
        ("pruned", Trace.Json.Int stats.pruned);
      ]
    in
    let args =
      match outcome.result with
      | Ok sol ->
          common
          @ [
              ("tile", Trace.Json.Str (Tile.to_string sol.tile));
              ("objective", Trace.Json.Float sol.objective);
              ("tiles", Trace.Json.Int sol.tile_count);
            ]
      | Error e -> common @ [ ("error", Trace.Json.Str (infeasible_to_string e)) ]
    in
    Trace.event trace ~cat:"dory" ~args "tiling.solve"
  end

let solve cfg accel l = (solve_stats cfg accel l).result
