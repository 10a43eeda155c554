(** Deterministic per-instance health lifecycle.

    Each serving instance owns one state machine walking

    {v healthy -> degraded -> probation -> readmitted v}

    Accumulated fault observations degrade an instance; after a cooldown
    (the {e probation window}) it enters probation, where seeded
    synthetic health-check probes run every [probe_interval] cycles,
    each costing [probe_cost] cycles on the probed instance. A streak of
    [pass_threshold] consecutive passes readmits it to the healthy
    rotation; a failed probe (or faults observed while on probation) is
    a {e relapse} that re-degrades it with an escalated cooldown — the
    capped exponential shape of {!Fault.Session.backoff_with}, base
    [probation_window], cap [backoff_cap].

    Everything is a pure function of [(config, instance, fault
    observations)]: probe outcomes come from a SplitMix64 stream seeded
    by [probe_seed] mixed with the instance id, and the machine only
    moves when {!advance} or {!observe_faults} is called with a caller
    clock. Equal observation sequences therefore produce byte-identical
    transition logs at any host job count. *)

type state = Healthy | Degraded | Probation | Readmitted

type config = {
  fault_threshold : int;
      (** faults accumulated during one healthy tenure before the
          instance degrades; >= 1 *)
  probation_window : int;
      (** base cooldown in cycles between degrading and the first
          probe; >= 1. Escalates on relapse. *)
  probe_interval : int;
      (** idle gap in cycles between the end of one probe and the start
          of the next; >= 0 *)
  probe_cost : int;  (** cycles each probe occupies the instance; >= 1 *)
  pass_threshold : int;  (** consecutive passes to readmit; >= 1 *)
  backoff_cap : int;
      (** ceiling for the escalated probation window; >= probation_window *)
  probe_fail_prob : float;  (** per-probe Bernoulli failure; in [0, 1] *)
  probe_seed : int;  (** base seed for the probe-outcome streams *)
}

val default : config
(** threshold 3, window 50_000, interval 10_000, cost 2_000, passes 2,
    cap 400_000, fail probability 0, seed 9. *)

val validate : config -> (unit, string) result
(** [Error msg] when any field is out of range. *)

type cause =
  | Boot  (** configured degraded from cycle 0 *)
  | Faults of int  (** fault count that crossed the threshold / relapsed *)
  | Window_elapsed  (** probation cooldown expired *)
  | Probe_pass  (** pass streak reached [pass_threshold] *)
  | Probe_fail  (** a probe failed *)

type transition = {
  tr_at : int;  (** cycle the transition took effect *)
  tr_from : state;
  tr_to : state;
  tr_cause : cause;
}

type t

val create : ?degraded_at_start:bool -> config -> instance:int -> t
(** A fresh machine for [instance], [Healthy] unless
    [degraded_at_start] (then [Degraded] from cycle 0 with one relapse
    on the books). [config] must already be validated; [create] raises
    [Invalid_argument] otherwise. *)

val instance : t -> int
val state : t -> state

val eligible : t -> bool
(** In the healthy rotation: [Healthy] or [Readmitted]. *)

val advance : t -> now:int -> int
(** Process everything scheduled up to and including cycle [now] —
    cooldown expiry, probes — and return the probe cycles consumed by
    this call (to be charged to the instance). The clock is monotone:
    [now] earlier than a previous call is clamped forward. *)

val observe_faults : t -> now:int -> int -> unit
(** Record [n] fault observations attributed to cycle [now]. While
    eligible they accumulate toward [fault_threshold]; on probation any
    fault is an immediate relapse; while degraded they are ignored (the
    cooldown is not extended). Call {!advance} first so pending probes
    land before the observation. *)

val transitions : t -> transition list
(** Chronological transition log (excludes the initial state). *)

val readmissions : t -> int
val relapses : t -> int
(** Times the machine entered [Degraded] (including [Boot]). *)

val probes_passed : t -> int
val probes_failed : t -> int

val probe_cycles : t -> int
(** Total cycles consumed by probes so far. *)

val state_label : state -> string
val cause_label : cause -> string

val legal_pairs : (state * state) list
(** Every (from, to) pair the machine can produce, in a stable order —
    the canonical enumeration for pre-registering transition counters. *)

val transition_counts : t -> ((state * state) * int) list
(** Count per legal pair, in [legal_pairs] order (zeros included). *)
