(** Golden conformance snapshots.

    One snapshot per (zoo model × deployment configuration) records what
    the compiler produced last time anyone blessed the tree: an MD5
    digest of the inference output on a fixed input, end-to-end wall
    cycles, binary size and the L2 static/arena split. The snapshot
    suite ([test/golden/*.golden], checked by [test/test_golden.ml])
    turns any behavioural drift — a changed output bit, a cycle-count
    regression, a size change — into a test failure that names the
    field; intentional changes are re-recorded with
    [htvmc check --bless]. *)

type entry = {
  ge_model : string;
  ge_config : string;  (** ["cpu"], ["digital"], ["analog"] or ["both"] *)
  ge_output_digest : string;  (** MD5 hex of dtype + shape + elements *)
  ge_wall_cycles : int;
  ge_binary_bytes : int;
  ge_l2_static_bytes : int;
  ge_l2_arena_bytes : int;
}

val configurations : (string * Arch.Platform.t * Models.Policy.t) list
(** Table I's four columns: cpu / digital / analog / both, each with the
    weight-precision policy the paper deploys on it. *)

val cases : (string * string) list
(** All (model, config) pairs — the 4 zoo models × {!configurations}. *)

val filename : model:string -> config:string -> string
(** ["<model>.<config>.golden"]. *)

val input_seed : int
(** The fixed input binding seed every snapshot uses. *)

val digest_tensor : Tensor.t -> string
(** {!Tensor.digest}: MD5 hex over dtype, shape and every element. *)

val compute : model:string -> config:string -> (entry, string) result
(** Build the model, compile it with the configuration's platform
    (stock {!Htvm.Compile.default_config} pinned to [jobs = 1]), run
    it on the fixed input and measure. [Error] carries a
    rendered compile failure or an unknown model/config name. *)

val to_string : entry -> string
(** The [htvm-golden v1] file body (trailing newline included). *)

val of_string : string -> (entry, string) result

val load : dir:string -> model:string -> config:string -> (entry, string) result
(** Read and parse [dir/filename]. [Error] on a missing or malformed
    file (the message says how to bless). *)

val bless : dir:string -> entry -> unit
(** Write the snapshot file, creating [dir] if needed. *)

val diff : expected:entry -> actual:entry -> string list
(** Human-readable per-field mismatches; [[]] means the snapshot holds. *)
