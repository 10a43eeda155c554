(** Deterministic fault-injection plans.

    A plan describes an injection campaign as a list of rules, each a
    {e site} (which hardware mechanism to break), a {e trigger} (on which
    occurrences of that site the rule fires) and a {e kind} (what
    happens). Plans are pure data with a stable textual form, so a
    campaign is fully described by one string and replays byte-for-byte:
    all randomness (bit positions, [Prob] draws) comes from a SplitMix64
    stream seeded by [seed] inside the runtime {!Session}.

    Spec grammar (comma/whitespace-separated elements, [#] comments):
    {v
    seed=42,dma_in@every=5:drop,l2@nth=3:flip=2,compute(diana_analog)@p=0.1:stall=200
    v}
    - sites: [dma_in], [dma_out], [wload], [compute], [compute(NAME)],
      [l1], [l2]
    - triggers: [always], [nth=K] (the K-th occurrence only), [every=N]
      (every N-th occurrence), [p=F] (per-occurrence Bernoulli)
    - kinds: [flip] / [flip=N] (N bit-flips), [drop] (transfer/compute
      failure; rejected on [l1]/[l2], where nothing can fail),
      [stall=C] (C extra cycles)

    Detection semantics (modeled by the simulator, see DESIGN.md): DMA
    and weight-load payloads are checksummed, so [flip]/[drop] there are
    {e detected} and retried; [drop] on a compute site is a watchdog
    timeout, also detected and retried. [flip] on [l1]/[l2] (bit rot in
    the occupied region) and on compute sites (a wrong output tile) is
    {e silent}: nothing in the modeled runtime can see it. *)

type site =
  | Dma_in  (** an L2 -> L1 activation transfer *)
  | Dma_out  (** an L1 -> L2 writeback *)
  | Weight_load  (** a weight-memory fill *)
  | Compute of string option
      (** a tile computation; [Some name] restricts to one engine *)
  | L1  (** bit rot in occupied L1, sampled once per program step *)
  | L2  (** bit rot in occupied L2, sampled once per program step *)

type trigger = Always | Nth of int | Every of int | Prob of float
type kind = Flip of int | Drop | Stall of int
type rule = { site : site; trigger : trigger; kind : kind }
type t = { seed : int; rules : rule list }

val empty : t
(** No rules: injection disabled. Threading [empty] through the
    simulator is a strict no-op (identical cycles, digests and trace
    event counts) — asserted by the test suite. *)

val is_empty : t -> bool

val site_matches : rule:site -> event:site -> bool
(** Does a rule site apply to a concrete event site? [Compute None]
    matches every engine. *)

val site_label : site -> string
(** Stable label, also used as the occurrence-counter key and in
    {!Session.Unrecovered} diagnostics. *)

val to_string : t -> string
(** Canonical spec string; [Plan.of_string (Plan.to_string p)] is [p].
    The empty plan renders as ["none"]. *)

val of_string : string -> (t, string) result
(** Parse a spec string (or fault file contents). [""] and ["none"]
    yield {!empty}. [Error] carries one line naming the offending
    element: an unknown site, trigger or kind, a [drop] on [l1]/[l2], or
    a [seed=] without an integer. *)

val load : string -> (t, string) result
(** Read a fault file: same grammar, one or more rules per line. *)
