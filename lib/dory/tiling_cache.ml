(* Shape-keyed memoization of tiling solves.

   ResNet-style networks re-solve identical convolution signatures many
   times, and repeated compiles (benches, autotuning sweeps, serving many
   requests for the same model family) re-solve whole networks. A solve's
   outcome depends only on the canonical layer signature (kind, dims,
   strides/pads, dtypes — never on tensor contents), the accelerator it
   targets and the solver configuration, so that triple is the key.

   The cached [Tiling.outcome] carries the search statistics alongside
   the solution: replaying a hit emits exactly the trace payload an
   uncached solve would have, keeping cached compilations bit-identical
   to cold ones.

   Not domain-safe by design: compile coordinates all lookups and
   insertions from the submitting domain and fans only the (pure) misses
   out to the pool. *)

type t = {
  table : (string, Tiling.outcome) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create () = { table = Hashtbl.create 64; hits = 0; misses = 0 }

(* Everything [Tiling.solve_stats] can observe: the layer's signature
   (geometry and dtypes, never weight/bias contents: cycle models,
   capacity rules and heuristics only read those), the accelerator and
   the solver config. Config floats are rendered in hex so distinct
   alphas can never collide.

   Fields are assembled with [Util.Key.encode] (length-prefixed), not
   concatenated with separators: the accelerator name is caller-supplied,
   so a name containing a separator could otherwise shift field
   boundaries and make two distinct (config, accel, layer) triples
   collide — and a persistent store would then serve the wrong tile. *)
let signature (cfg : Tiling.config) ~accel (l : Ir.Layer.t) =
  Util.Key.encode
    [
      accel;
      Printf.sprintf "%h;%b;%b;%b;%d" cfg.Tiling.alpha
        cfg.Tiling.use_pe_heuristics cfg.Tiling.use_dma_heuristic
        cfg.Tiling.double_buffer cfg.Tiling.l1_budget;
      Ir.Layer.signature l;
    ]

let find t key = Hashtbl.find_opt t.table key
let add t key outcome = Hashtbl.replace t.table key outcome

let note t ~hit = if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1
let hits t = t.hits
let misses t = t.misses
let length t = Hashtbl.length t.table

let clear t =
  Hashtbl.reset t.table;
  t.hits <- 0;
  t.misses <- 0
