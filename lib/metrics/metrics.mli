(** Fleet telemetry: a dependency-free, deterministic metrics registry.

    A {!t} is a typed registry of instruments — monotone {!counter}s,
    last-write {!gauge}s, fixed-bucket {!histogram}s and cycle-stamped
    {!series} — plus three exposition formats (Prometheus text, JSON via
    {!Trace.Json}, CSV). It is the metrics-pipeline counterpart of
    {!Trace}: traces answer "what happened when", metrics answer "how
    much, how often, how it trended per window".

    {b Determinism contract.} Every instrument lives on one of three
    {!track}s:
    - {!Cycles} — the simulated-cycle domain. Everything registered here
      must be a pure function of the workload seed: byte-identical at
      any fleet size ([--workers]) and any host parallelism ([--jobs]).
      This is the serving layer's tally-invariance contract extended to
      telemetry, and [tools/verify.sh] enforces it by diffing dumps.
    - {!Sched} — cycle-stamped but schedule-dependent: per-instance
      utilization, in-flight depth, running throughput. These
      legitimately move with the fleet shape, exactly like makespan and
      throughput in {!Serve.report}.
    - {!Wall} — host wall-clock (compile-phase seconds). Never
      deterministic; always rendered last so consumers can strip it.

    Exposition renders tracks in that order, each introduced by a
    [# track <name>] marker line, so "strip everything from the first
    non-deterministic marker" is a one-liner in shell.

    Registration order is the exposition order within a track, and
    registering the same (name, labels) pair twice raises
    [Invalid_argument] — a duplicate is always a plumbing bug. *)

type track =
  | Cycles  (** deterministic simulated-cycle domain *)
  | Sched  (** cycle-stamped, fleet-shape dependent *)
  | Wall  (** host wall-clock, non-deterministic *)

type t
(** A mutable registry. Not domain-safe: registries are owned by the
    coordinating domain (the serving loop and the compile driver both
    record from the submitting domain only). *)

type counter
type gauge
type histogram
type series

val create : unit -> t

val counter :
  t -> ?track:track -> ?labels:(string * string) list -> ?help:string ->
  string -> counter
(** Register a monotone counter (default track {!Cycles}, no labels).
    @raise Invalid_argument on an invalid metric/label name, a duplicate
    label name, or a (name, labels) pair already registered. *)

val gauge :
  t -> ?track:track -> ?labels:(string * string) list -> ?help:string ->
  string -> gauge
(** Register a gauge holding one float (last write wins). *)

val histogram :
  t -> ?track:track -> ?labels:(string * string) list -> ?help:string ->
  buckets:int list -> string -> histogram
(** Register a fixed-bucket histogram. [buckets] are inclusive upper
    bounds and must be strictly increasing; an implicit [+Inf] bucket
    catches the rest. An observation [v] lands in the first bucket with
    [v <= bound].
    @raise Invalid_argument if [buckets] is not strictly increasing (or
    on any registration error above). *)

val series :
  t -> ?track:track -> ?labels:(string * string) list -> ?help:string ->
  columns:string list -> string -> series
(** Register a cycle-timestamped time series with a fixed column set.
    Each column is exposed as [<name>_<column>]; every sample carries
    the caller's timestamp (simulated cycles).
    @raise Invalid_argument on an empty or duplicated column list (or on
    any registration error above). *)

val inc : counter -> int -> unit
(** Add to a counter. @raise Invalid_argument on a negative amount
    (counters are monotone). *)

val set : gauge -> float -> unit
val set_int : gauge -> int -> unit

val observe : histogram -> int -> unit
(** Record one observation into its bucket and the sum/count totals. *)

val sample : series -> ts:int -> float list -> unit
(** Append one sample. @raise Invalid_argument when the value count does
    not match the registered column count. *)

(** {1 Snapshots} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      bounds : int list;  (** registered upper bounds *)
      counts : int list;  (** per-bucket (non-cumulative), +Inf last *)
      sum : int;
      count : int;
    }
  | Series of { columns : string list; samples : (int * float list) list }

type metric = {
  m_name : string;
  m_track : track;
  m_labels : (string * string) list;  (** sorted by label name *)
  m_help : string;
  m_value : value;
}

type snapshot = metric list
(** Immutable copy of a registry, in registration order. *)

val snapshot : t -> snapshot

(** {1 Exposition} *)

val to_prometheus : snapshot -> string
(** Prometheus text format: [# HELP] / [# TYPE] per metric, cumulative
    [_bucket{le=...}] / [_sum] / [_count] lines per histogram, one line
    per series sample with the cycle timestamp in the optional
    timestamp field. Tracks appear in {!Cycles}, {!Sched}, {!Wall}
    order, each introduced by a [# track <name>] marker (emitted even
    when empty, so stripping is stable). *)

val to_json : snapshot -> Trace.Json.t
(** [{"version": 1, "tracks": {"cycles": [...], "sched": [...],
    "wall": [...]}}]; floats use {!Trace.Json}'s round-trippable
    rendering. *)

type format = Prom | Json | Csv

val format_of_string : string -> (format, string) result
(** ["prom"], ["json"] or ["csv"]. *)

val render : format -> snapshot -> string
(** [Prom] is {!to_prometheus} and [Json] {!to_json}, newline-terminated.
    [Csv] has the header [track,name,labels,kind,field,ts,value] and one
    row per scalar, histogram bucket ([field] = [le:<bound>], [sum],
    [count]) and series sample ([field] = column, [ts] = cycles). *)
