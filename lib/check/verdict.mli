(** Typed outcomes of one differential conformance case.

    A case is a (graph, deployment config) pair. The runner compiles it,
    executes the artifact on the simulated SoC and compares the output
    bit-for-bit against the reference interpreter. The verdict taxonomy
    replaces the substring matching the fuzz suite used to do on compile
    error messages: a {!Resource} rejection is a legitimate outcome on an
    undersized platform, everything else in the failure set is a compiler
    or simulator bug. *)

type stage =
  | Compiling  (** {!Htvm.Compile.compile} raised *)
  | Executing  (** {!Htvm.Compile.run} raised, or counted no cycles *)
  | Referencing  (** the interpreter itself raised — a generator bug *)

type t =
  | Pass of { wall_cycles : int }
      (** compiled, ran, bit-identical to the interpreter *)
  | Recovered of { wall_cycles : int; retries : int; detected : int }
      (** a fault campaign injected faults, every one was detected and
          retried, and the output is still bit-identical — the
          reliability model absorbed the chaos *)
  | Degraded of { wall_cycles : int; demotions : int }
      (** bit-identical output, but the compiler's fallback ladder
          demoted at least one segment off its first-choice target
          (chaos runs only: a campaign must be requested) *)
  | Resource of Htvm.Compile.error
      (** a typed resource diagnosis ({!Htvm.Compile.is_resource_error})
          — legitimate on shrunken L1/L2 *)
  | Reject of Htvm.Compile.error
      (** any other compile error on a valid graph: a compiler bug *)
  | Mismatch of { max_abs_diff : int }
      (** executed but differs from the interpreter, with no silent
          fault injected — a compiler/simulator bug even under chaos *)
  | Detected_uncorrected of { site : string; attempts : int }
      (** a detected fault outlived the retry budget and the run
          aborted: a failure for [htvmc chaos], whose stock campaigns
          are recoverable by construction *)
  | Silent_corruption of { max_abs_diff : int; silent_faults : int }
      (** silent faults were injected and the output differs — the
          worst case the resilience layer exists to keep out of stock
          campaigns *)
  | Crash of { stage : stage; message : string }

val is_failure : t -> bool
(** [true] for {!Reject}, {!Mismatch}, {!Detected_uncorrected},
    {!Silent_corruption} and {!Crash}; [false] for {!Pass},
    {!Recovered}, {!Degraded} and {!Resource}. *)

val class_of : t -> string
(** Stable machine-readable class label, e.g. ["pass"], ["resource"],
    ["reject:internal"], ["mismatch"], ["crash:executing"]. Used by the
    shrinker's failure predicate: two verdicts are "the same failure"
    when their classes agree. *)

val describe : t -> string
(** One-line human rendering. *)

val run_case :
  ?input_seed:int ->
  ?faults:Fault.Plan.t ->
  ?retry_budget:int ->
  Htvm.Compile.config ->
  Ir.Graph.t ->
  t
(** Run one case end to end. Never raises: exceptions at any stage
    become {!Crash} verdicts. [input_seed] (default 0) seeds the random
    input binding. When [faults] is given the execution runs as an
    injection campaign and the verdict may additionally be {!Recovered},
    {!Degraded}, {!Detected_uncorrected} or {!Silent_corruption};
    without it the historical taxonomy is unchanged (demotions and fault
    counters are ignored). *)

val run_seed : int -> t
(** [run_case (Gen.random_config seed) (Gen.generate seed)] with the
    seed also used for the input binding — the canonical fuzz case. *)

val run_chaos_seed : ?retry_budget:int -> int -> t
(** The canonical chaos case: {!Gen.chaos_config}, {!Gen.generate} and
    {!Gen.random_fault_plan} of the same seed. Stock campaigns are
    recoverable by construction, so any failure verdict here is a bug in
    the resilience machinery. *)

val reproducer :
  ?faults:Fault.Plan.t ->
  seed:int ->
  config:Htvm.Compile.config ->
  graph:Ir.Graph.t ->
  verdict:t ->
  unit ->
  string
(** The minimized-reproducer file: [#]-comment header (seed, verdict,
    the config on one line — platform, L1 bytes, planner strategy,
    buffering, heuristics, engine settings — and the replay command)
    followed by the graph in {!Ir.Text} form.
    The result is itself a loadable [.htvm] file. When [faults] is given
    the header embeds the fault plan ([# faults: <spec>], parseable by
    {!Fault.Plan.of_string}) and the replay command becomes
    [htvmc chaos --replay-seed N], so chaos failures reproduce
    byte-for-byte from the file alone. *)
