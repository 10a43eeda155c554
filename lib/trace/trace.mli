(** Structured tracing & profiling for the compiler and the simulator.

    A {!t} is a collecting sink. All recording entry points take a
    [t option]: [None] is the null sink, on which every call is a no-op,
    so instrumented code paths cost nothing when tracing is off.

    Two time bases coexist in one trace, on separate tracks:
    - compile-time {!span}s and {!event}s are stamped with a strictly
      monotone process clock (microseconds of CPU time);
    - simulated-execution {!interval}s and {!counter} samples are stamped
      by the caller in cycles.

    {!to_chrome_json} renders everything as Chrome trace-event JSON
    (load it at https://ui.perfetto.dev), one Perfetto process per
    track; {!summary} renders a compact per-track text table. *)

(** Minimal JSON document builder (the repo is dependency-free, so this
    also backs {!Htvm.Report}'s machine-readable output). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact rendering; strings are escaped, non-finite floats become
      [null]. *)

  val float_repr : float -> string
  (** The float rendering {!to_string} uses: shortest decimal form that
      round-trips through [float_of_string] ([%.12g], escalating to
      [%.15g]/[%.17g] when needed); non-finite floats become ["null"].
      Exposed so other text formats (metrics exposition) render floats
      byte-identically to the JSON exporter. *)
end

type kind = Span | Instant | Counter

type event = {
  ev_name : string;
  ev_cat : string;
  ev_track : string;
  ev_ts : int;   (** microseconds for compile spans, cycles for sim intervals *)
  ev_dur : int;  (** 0 for instants and counter samples *)
  ev_kind : kind;
  ev_args : (string * Json.t) list;
}

type t

val create : unit -> t
val enabled : t option -> bool

val span :
  t option ->
  ?track:string ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  string ->
  (unit -> 'a) ->
  'a
(** [span trace name f] times [f] on the process clock and records a
    span named [name] (default track ["compiler"]). Nested calls yield
    properly nested spans; the span closes even if [f] raises. *)

val event :
  t option ->
  ?track:string ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  string ->
  unit
(** An instantaneous event at the current process clock. *)

val interval :
  t option ->
  track:string ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  ts:int ->
  dur:int ->
  string ->
  unit
(** A caller-timestamped interval (simulated engine activity). *)

val counter : t option -> track:string -> ?cat:string -> ts:int -> value:int -> string -> unit
(** A counter sample (rendered as a Perfetto counter track). *)

val events : t -> event list
(** Collected events in emission order. *)

val tracks : t -> string list
(** Track names in order of first (time-sorted) appearance. *)

val to_chrome_json : t -> string
val summary : t -> string
