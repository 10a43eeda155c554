(** Persistent, content-addressed compilation cache.

    A store is a directory of immutable entries shared across runs, CLI
    invocations, and serve fleets. Entries live in two tiers: the
    {e layer} tier maps a tiling-problem signature to an encoded solver
    outcome, the {e artifact} tier maps a graph-structure+config digest
    to the solver and tuner decisions of one compile. Neither holds
    compiled bytes. The store itself is agnostic to
    the payload format — callers hand it opaque bytes under an opaque
    key; keys are hashed to sharded paths, so arbitrary key contents
    are safe.

    Every load is a {e verified replay}: an entry carries a
    format/version header, the payload length, and the payload's
    content digest. Any mismatch — truncation, bit rot, version skew,
    a foreign file — rejects the entry: it is deleted and reported as
    absent, so the caller recomputes and overwrites. A load never
    crashes the caller and never yields bytes that differ from what was
    stored.

    Writes are atomic (temp file + rename on the same filesystem), so
    concurrent writers racing the same key are safe: readers observe
    either no entry or a complete one, and same-key writers store
    identical bytes by construction (keys are content-addressed). *)

type t
(** A handle on one store root, accumulating hit/miss/reject/eviction
    counters across lookups made through it. *)

type tier = Layer | Artifact

type entry = {
  e_tier : tier;
  e_digest : string;  (** hex digest of the key; the entry's file name *)
  e_bytes : int;  (** on-disk size, header included *)
  e_mtime : float;  (** last hit or write; the LRU eviction ordering *)
}

val default_root : unit -> string
(** [$HTVM_CACHE_DIR], else [$XDG_CACHE_HOME/htvm], else
    [~/.cache/htvm], else a directory under the system temp dir. *)

val open_root : string -> t
(** Open (creating if needed) a store rooted at the given directory.
    Raises [Sys_error] if the root is empty or the directory cannot be
    created (e.g. a path component is a regular file). *)

val root : t -> string

val find : t -> tier -> key:string -> string option
(** Verified lookup. [Some payload] only if an entry for [key] exists
    and its header, length, and content digest all check out; a valid
    hit also bumps the entry's mtime for LRU. Any invalid entry is
    deleted and counted as a reject; absence is counted as a miss. *)

val put : t -> tier -> key:string -> string -> unit
(** Atomically (over)write the entry for [key]. *)

val invalidate : t -> tier -> key:string -> unit
(** Delete the entry for [key] and count a reject. Used by callers
    whose own check of a digest-valid payload fails (it does not
    decode, or its replay asks questions it did not record): the entry
    must not be served again. *)

val hits : t -> int

val misses : t -> int

val rejects : t -> int

val evictions : t -> int

val entries : t -> entry list
(** Scan the store, in a deterministic (tier, digest) order. *)

val total_bytes : entry list -> int

val verify : t -> int * int
(** Re-check every entry's header and digest; delete the invalid ones
    (counting rejects). Returns [(ok, removed)] and refreshes the
    index file. *)

val gc : t -> max_bytes:int -> int
(** Evict least-recently-used entries (oldest mtime first) until the
    store fits in [max_bytes]. Returns the number evicted and
    refreshes the index file. *)

val write_index : t -> unit
(** Atomically rewrite the human-readable index file from a fresh scan.
    The index is advisory — lookups never trust it — but gives
    [htvmc cache stats] and outside tooling a cheap inventory. *)
