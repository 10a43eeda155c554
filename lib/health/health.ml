(* Deterministic per-instance health lifecycle (see health.mli). *)

type state = Healthy | Degraded | Probation | Readmitted

type config = {
  fault_threshold : int;
  probation_window : int;
  probe_interval : int;
  probe_cost : int;
  pass_threshold : int;
  backoff_cap : int;
  probe_fail_prob : float;
  probe_seed : int;
}

let default =
  {
    fault_threshold = 3;
    probation_window = 50_000;
    probe_interval = 10_000;
    probe_cost = 2_000;
    pass_threshold = 2;
    backoff_cap = 400_000;
    probe_fail_prob = 0.0;
    probe_seed = 9;
  }

let validate c =
  if c.fault_threshold < 1 then Error "health: fault_threshold must be >= 1"
  else if c.probation_window < 1 then
    Error "health: probation_window must be >= 1"
  else if c.probe_interval < 0 then
    Error "health: probe_interval must be >= 0"
  else if c.probe_cost < 1 then Error "health: probe_cost must be >= 1"
  else if c.pass_threshold < 1 then Error "health: pass_threshold must be >= 1"
  else if c.backoff_cap < c.probation_window then
    Error "health: backoff_cap must be >= probation_window"
  else if
    (not (Float.is_finite c.probe_fail_prob))
    || c.probe_fail_prob < 0.0
    || c.probe_fail_prob > 1.0
  then Error "health: probe_fail_prob must be in [0, 1]"
  else Ok ()

let probation_backoff c ~relapse =
  Fault.Session.backoff_with ~base:c.probation_window ~cap:c.backoff_cap
    relapse

type cause =
  | Boot
  | Faults of int
  | Window_elapsed
  | Probe_pass
  | Probe_fail

type transition = { tr_at : int; tr_from : state; tr_to : state; tr_cause : cause }

type t = {
  cfg : config;
  inst : int;
  rng : Util.Rng.t;
  fail_ppm : int;
  mutable st : state;
  mutable clock : int;
  mutable tenure_faults : int;  (* faults this healthy tenure *)
  mutable relapse : int;  (* times entered Degraded *)
  mutable probation_at : int;  (* when Degraded -> Probation *)
  mutable next_probe : int;  (* next probe start, while on probation *)
  mutable streak : int;  (* consecutive passes this probation *)
  mutable readmit : int;
  mutable passed : int;
  mutable failed : int;
  mutable probe_cyc : int;
  mutable log : transition list;  (* reverse chronological *)
}

let create ?(degraded_at_start = false) cfg ~instance =
  (match validate cfg with Ok () -> () | Error msg -> invalid_arg msg);
  let t =
    {
      cfg;
      inst = instance;
      (* Per-instance stream, mirroring the serve runtime's per-request
         fault-session reseeding. *)
      rng = Util.Rng.create (cfg.probe_seed + ((instance + 1) * 1_000_003));
      fail_ppm = int_of_float (cfg.probe_fail_prob *. 1_000_000.);
      st = Healthy;
      clock = 0;
      tenure_faults = 0;
      relapse = 0;
      probation_at = 0;
      next_probe = 0;
      streak = 0;
      readmit = 0;
      passed = 0;
      failed = 0;
      probe_cyc = 0;
      log = [];
    }
  in
  if degraded_at_start then begin
    t.relapse <- 1;
    t.st <- Degraded;
    t.probation_at <- probation_backoff cfg ~relapse:1;
    t.log <- [ { tr_at = 0; tr_from = Healthy; tr_to = Degraded; tr_cause = Boot } ]
  end;
  t

let instance t = t.inst
let state t = t.st
let eligible t = match t.st with Healthy | Readmitted -> true | Degraded | Probation -> false

let shift t ~at to_ cause =
  t.log <- { tr_at = at; tr_from = t.st; tr_to = to_; tr_cause = cause } :: t.log;
  t.st <- to_

let advance t ~now =
  let now = max now t.clock in
  let consumed = ref 0 in
  let continue = ref true in
  while !continue do
    match t.st with
    | Degraded when t.probation_at <= now ->
        shift t ~at:t.probation_at Probation Window_elapsed;
        t.streak <- 0;
        t.next_probe <- t.probation_at
    | Probation when t.next_probe + t.cfg.probe_cost <= now ->
        let finish = t.next_probe + t.cfg.probe_cost in
        t.probe_cyc <- t.probe_cyc + t.cfg.probe_cost;
        consumed := !consumed + t.cfg.probe_cost;
        let fail = Util.Rng.int t.rng 1_000_000 < t.fail_ppm in
        if fail then begin
          t.failed <- t.failed + 1;
          t.relapse <- t.relapse + 1;
          shift t ~at:finish Degraded Probe_fail;
          t.probation_at <- finish + probation_backoff t.cfg ~relapse:t.relapse
        end
        else begin
          t.passed <- t.passed + 1;
          t.streak <- t.streak + 1;
          if t.streak >= t.cfg.pass_threshold then begin
            t.readmit <- t.readmit + 1;
            t.tenure_faults <- 0;
            shift t ~at:finish Readmitted Probe_pass
          end
          else t.next_probe <- finish + t.cfg.probe_interval
        end
    | _ -> continue := false
  done;
  t.clock <- now;
  !consumed

let observe_faults t ~now n =
  let now = max now t.clock in
  t.clock <- now;
  if n > 0 then begin
    match t.st with
    | Healthy | Readmitted ->
        t.tenure_faults <- t.tenure_faults + n;
        if t.tenure_faults >= t.cfg.fault_threshold then begin
          let crossed = t.tenure_faults in
          t.relapse <- t.relapse + 1;
          t.tenure_faults <- 0;
          shift t ~at:now Degraded (Faults crossed);
          t.probation_at <- now + probation_backoff t.cfg ~relapse:t.relapse
        end
    | Probation ->
        t.relapse <- t.relapse + 1;
        shift t ~at:now Degraded (Faults n);
        t.probation_at <- now + probation_backoff t.cfg ~relapse:t.relapse
    | Degraded -> ()
  end

let transitions t = List.rev t.log
let readmissions t = t.readmit
let relapses t = t.relapse
let probes_passed t = t.passed
let probes_failed t = t.failed
let probe_cycles t = t.probe_cyc

let state_label = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Probation -> "probation"
  | Readmitted -> "readmitted"

let cause_label = function
  | Boot -> "boot"
  | Faults n -> Printf.sprintf "faults=%d" n
  | Window_elapsed -> "window"
  | Probe_pass -> "probe-pass"
  | Probe_fail -> "probe-fail"

let legal_pairs =
  [
    (Healthy, Degraded);
    (Degraded, Probation);
    (Probation, Readmitted);
    (Probation, Degraded);
    (Readmitted, Degraded);
  ]

let transition_counts t =
  let trs = transitions t in
  List.map
    (fun pair ->
      ( pair,
        List.length
          (List.filter (fun tr -> (tr.tr_from, tr.tr_to) = pair) trs) ))
    legal_pairs
