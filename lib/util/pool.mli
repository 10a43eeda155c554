(** A fixed-size domain pool for embarrassingly parallel compiler work.

    A pool owns [jobs - 1] worker domains (the submitting domain is the
    last worker, so [jobs] tasks make progress at once). Batches are
    submitted with {!map}/{!iter}: tasks are pulled from a shared index,
    results land in their input slot, so {!map} always preserves input
    order — callers get deterministic, sequential-identical output
    regardless of [jobs]. With [jobs = 1] no domain is ever spawned and
    {!map} is exactly [List.map].

    Task functions run on worker domains: they must not touch shared
    mutable state (in this codebase: a {!Trace.t} sink or a
    {!Store.t} handle's counters) — coordinate those from the submitting
    domain instead. *)

type t

val create : jobs:int -> t
(** A pool of [max 1 jobs] workers. Worker domains are spawned lazily on
    the first batch with more than one task, so an unused pool costs
    nothing. *)

val jobs : t -> int

val shutdown : t -> unit
(** Join all worker domains. Idempotent. The pool must not be used
    afterwards. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, and [shutdown] even on exceptions. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map. If any task raises, the remaining
    tasks still run to completion and the exception of the
    lowest-indexed failing task is re-raised (with its backtrace) on the
    submitting domain — deterministic even when several tasks fail. *)

val iter : t -> ('a -> unit) -> 'a list -> unit

val available : unit -> int
(** The runtime's recommended domain count for this machine. *)

val jobs_from_env : ?default:int -> unit -> int
(** [HTVM_JOBS] when set to a positive integer, capped at {!available}
    (an ambient default must not oversubscribe a smaller machine — an
    explicit [--jobs N] still forces [N]); [default] (1) when the
    variable is unset or empty. [default] itself is never capped.
    @raise Invalid_argument on a malformed, zero or negative value — a
    bad environment variable must fail as loudly as a bad [--jobs]
    flag. *)
