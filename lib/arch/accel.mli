(** Accelerator descriptions.

    An accelerator is characterized by (paper Sec. III-C): the operations
    it supports (capability rules judged on normalized layers), its
    dedicated weight memory, cycle models for compute and weight loading,
    fixed per-call and per-tile overheads, and the DORY heuristics that
    steer the tiler towards well-utilized tiles. *)

type heuristic = {
  h_name : string;
  beta : float;  (** weight of this term in the Eq. (1) objective *)
  score : Ir.Layer.t -> Tile.t -> float;  (** larger is better *)
}

type t = {
  accel_name : string;
  weight_mem_bytes : int option;
      (** dedicated weight memory; [None] means weights share L1 *)
  supports : Ir.Layer.t -> bool;
      (** accelerator-aware rules: bit-widths, kinds, geometry limits *)
  tile_ok : Ir.Layer.t -> Tile.t -> bool;
      (** per-tile hardware constraints beyond memory capacity (e.g. the
          analog macro's row/column geometry) *)
  compute_cycles : Ir.Layer.t -> Tile.t -> int;
      (** array busy cycles to execute one tile, weights already loaded *)
  weight_load_cycles : Ir.Layer.t -> Tile.t -> int;
      (** cycles to bring the tile's weight slice into the weight memory *)
  setup_cycles : int;  (** host-side runtime overhead per kernel call *)
  tile_overhead_cycles : int;  (** host-side overhead per tile iteration *)
  heuristics : heuristic list;
}

val utilization : t -> Ir.Layer.t -> Tile.t -> float
(** MACs per busy cycle of the tile divided by the accelerator's best MACs
    per cycle across full tiles of this layer — a [0..1] efficiency proxy
    used in reports. *)
