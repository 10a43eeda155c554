(** DORY's tiling solver (paper Sec. III-B, Eqs. 1-5).

    Given a layer and an accelerator, find the tile geometry that
    maximizes

    {v alpha * (L1_weight + L1_out + L1_in) + sum_i beta_i * H_i v}

    subject to the L1 capacity constraint (Eq. 2), the accelerator's
    weight-memory capacity and its per-tile hardware rules. The H_i are
    the accelerator's registered heuristics (for DIANA's digital core:
    Eqs. 3-5). The solver enumerates output-channel and output-column
    candidates and, for each, takes the tallest feasible tile — the
    objective is monotone in tile height, so this is exact. *)

type config = {
  alpha : float;  (** weight of the memory-utilization term *)
  use_pe_heuristics : bool;
      (** enable the PE-alignment terms (Eqs. 3-4); off = Fig. 4 round
          markers *)
  use_dma_heuristic : bool;  (** enable the DMA term (Eq. 5) *)
  double_buffer : bool;
      (** reserve two L1 slots per activation buffer so DMA can overlap
          compute *)
  l1_budget : int;  (** activation L1 bytes available to this layer *)
}

val default_config : l1_budget:int -> config
(** alpha = 1, all heuristics on, double buffering on. *)

type solution = {
  tile : Arch.Tile.t;
  objective : float;
  mem_utilization : float;  (** activation-memory fraction used, 0..1 *)
  tiled : bool;             (** false when the whole layer fits L1 *)
  tile_count : int;
}

val feasible : config -> Arch.Accel.t -> Ir.Layer.t -> Arch.Tile.t -> bool
(** Does the tile satisfy Eq. 2, the weight-memory capacity and the
    accelerator's [tile_ok] rules? *)

val objective : config -> Arch.Accel.t -> Ir.Layer.t -> Arch.Tile.t -> float
(** The Eq. 1 objective for a candidate tile. *)

type stats = {
  explored : int;  (** candidate tiles whose feasibility was tested *)
  feasible : int;  (** of those, how many passed *)
  pruned : int;
      (** candidate tiles skipped without testing by the branch-and-bound
          column bound (the binary search over oy additionally shrinks
          [explored] itself) *)
}

type infeasible = {
  inf_layer : string;  (** {!Ir.Layer.describe} of the rejected layer *)
  inf_accel : string;  (** target accelerator name *)
  inf_l1_budget : int;  (** the L1 byte budget no tile fit in *)
}
(** Typed "no feasible tile" diagnosis: no candidate tile satisfied the
    L1 capacity, weight-memory and hardware-rule constraints. Callers
    (the compile driver, the conformance checker) match on this instead
    of on message substrings. *)

val infeasible_to_string : infeasible -> string
(** ["no feasible tile for <layer> on <accel> within <n> B of L1"]. *)

type outcome = { result : (solution, infeasible) result; stats : stats }

val signature : config -> accel:string -> Ir.Layer.t -> string
(** The canonical question a solve answers: an injective encoding of
    everything {!solve_stats} can observe — the accelerator name, the
    solver config and {!Ir.Layer.signature} (geometry and dtypes, never
    tensor contents). Layers with equal signatures get equal outcomes,
    statistics included. The persistent store keys its layer tier on it,
    and every solve an artifact-tier entry records is filed under it. *)

val solve_stats :
  ?exhaustive:bool -> config -> Arch.Accel.t -> Ir.Layer.t -> outcome
(** The solver proper: deterministic and side-effect free apart from the
    process-wide work counters, so calls may run on pool domains and
    outcomes may be stored and replayed ({!signature}). By default the search
    binary-searches the tallest feasible oy of each (k, ox) column
    (feasibility is monotone in oy) and skips columns whose objective
    upper bound cannot beat the incumbent; [~exhaustive:true] restores
    the full scan — same result, more [explored] candidates. Only the
    test suite passes it, as the reference the pruned search is checked
    against. *)

val trace_solve_event :
  Trace.t option -> Arch.Accel.t -> Ir.Layer.t -> outcome -> unit
(** Record the ["tiling.solve"] trace event for an outcome: the
    candidates explored, the feasible / infeasible / pruned split, and
    the chosen tile and objective. It is emitted separately from
    {!solve_stats} so parallel compilation can replay events in
    deterministic order from the coordinating domain. *)

val solve : config -> Arch.Accel.t -> Ir.Layer.t -> (solution, infeasible) result
(** The pruned {!solve_stats}'s result: [Error] when no feasible tile
    exists (layer cannot run on this accelerator within the memory
    budget). *)

type work = { solves : int; tests : int }

val solver_work : unit -> work
(** Process-wide count of solver invocations and feasibility tests
    actually performed since the last reset — unlike the per-solve
    {!stats} (which a store replays verbatim), this measures real work,
    so benches and tests can quantify what pruning and the persistent
    store avoid. *)

val reset_solver_work : unit -> unit
