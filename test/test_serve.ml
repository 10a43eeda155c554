(* The batched serving runtime: determinism of the functional tally
   across fleet sizes and host parallelism, batching arithmetic,
   admission shedding, degraded-instance routing, abort handling under
   exhausted retry budgets, and the percentile helper. *)

module B = Ir.Graph.Builder
module Dtype = Tensor.Dtype

(* One small digital conv model, compiled once: serving tests need many
   simulated inferences, not a big network. *)
let fixture =
  lazy
    (let g =
       let b = B.create () in
       let rng = Util.Rng.create 8 in
       let x = B.input b ~name:"x" Dtype.I8 [| 4; 8; 8 |] in
       let w = B.const b (Tensor.random rng Dtype.I8 [| 8; 4; 3; 3 |]) in
       let conv = B.conv2d b ~padding:(1, 1) x ~weights:w in
       let q = B.requantize b ~relu:true ~shift:9 ~out_dtype:Dtype.I8 conv in
       B.finish b ~output:q
     in
     let artifact =
       Result.get_ok
         (Htvm.Compile.compile (Htvm.Compile.default_config Arch.Diana.digital_only) g)
     in
     (artifact, g))

let serve ?(cfg = Serve.default) () =
  let artifact, g = Lazy.force fixture in
  Serve.run cfg artifact ~graph:g

(* Probability rules fit per-request fault sessions: each request's
   session reseeds, so occurrence-counted [every=] rules would restart
   counting at every request; [p=] draws fire regardless. *)
let flip_plan = Result.get_ok (Fault.Plan.of_string "seed=3,dma_in@p=0.4:flip")

let base = { Serve.default with Serve.requests = 12; max_batch = 3 }

(* The headline invariant: the functional tally (outcomes, digests,
   service cycles, fault counts) is byte-identical at any worker count
   and any host job count — fleet size only moves scheduling metrics. *)
let test_tally_worker_invariant () =
  let run workers jobs cfg =
    Serve.tally (serve ~cfg:{ cfg with Serve.workers; jobs } ())
  in
  let sweep cfg name =
    let reference = run 1 1 cfg in
    List.iter
      (fun (w, j) ->
        Alcotest.(check string)
          (Printf.sprintf "%s: workers %d jobs %d" name w j)
          reference (run w j cfg))
      [ (1, 4); (2, 1); (4, 1); (4, 4); (7, 2) ]
  in
  sweep base "closed";
  sweep
    { base with Serve.arrival = Serve.Poisson { mean_gap = 0 }; queue_depth = 2 }
    "poisson+shed";
  sweep
    { base with Serve.plan = flip_plan; retry_budget = 2; degrade_after = Some 2 }
    "faulty+degrading"

(* Scheduling metrics are allowed — required — to move with the fleet:
   a 4-instance closed-loop run finishes strictly earlier than 1. *)
let test_throughput_scales () =
  let r1 = serve ~cfg:{ base with Serve.workers = 1; max_batch = 1 } () in
  let r4 = serve ~cfg:{ base with Serve.workers = 4; max_batch = 1 } () in
  Alcotest.(check bool) "makespan shrinks" true
    (r4.Serve.r_makespan < r1.Serve.r_makespan);
  Alcotest.(check bool) "throughput grows" true
    (r4.Serve.r_throughput_rps > r1.Serve.r_throughput_rps)

(* Batching arithmetic on one instance: every batch costs the dispatch
   overhead exactly once, so batch size b saves (n - ceil(n/b)) * overhead
   over unbatched dispatch. *)
let test_batching_amortizes_overhead () =
  let cfg b =
    { base with Serve.workers = 1; max_batch = b; dispatch_overhead = 1_000 }
  in
  let batched = serve ~cfg:(cfg 3) () in
  let unbatched = serve ~cfg:(cfg 1) () in
  let batches r =
    List.fold_left (fun acc i -> acc + i.Serve.i_batches) 0 r.Serve.r_instances
  in
  Alcotest.(check int) "ceil(12/3) batches" 4 (batches batched);
  Alcotest.(check int) "12 singleton batches" 12 (batches unbatched);
  Alcotest.(check int) "gap = saved dispatches"
    ((12 - 4) * 1_000)
    (unbatched.Serve.r_makespan - batched.Serve.r_makespan)

(* Closed mode never sheds; an overloaded Poisson window sheds a typed
   Rejected outcome and the books still balance. *)
let test_admission_shedding () =
  let closed = serve ~cfg:base () in
  Alcotest.(check int) "closed mode never sheds" 0 closed.Serve.r_rejected;
  let r =
    serve
      ~cfg:
        {
          base with
          Serve.workers = 2;
          arrival = Serve.Poisson { mean_gap = 0 };
          queue_depth = 1;
        }
      ()
  in
  Alcotest.(check bool) "overload sheds" true (r.Serve.r_rejected > 0);
  Alcotest.(check int) "books balance" r.Serve.r_config.Serve.requests
    (r.Serve.r_served + r.Serve.r_rejected + r.Serve.r_aborted);
  Alcotest.(check bool) "shed rate matches" true
    (Float.abs
       (r.Serve.r_shed_rate
       -. (float_of_int r.Serve.r_rejected /. float_of_int 12))
    < 1e-9);
  List.iter
    (fun (req, o) ->
      match o with
      | Serve.Rejected { o_window } ->
          Alcotest.(check int) "rejected in its arrival window"
            (req.Serve.r_arrival / r.Serve.r_window)
            o_window
      | _ -> ())
    r.Serve.r_outcomes

(* A statically degraded instance serves nothing while any healthy peer
   exists; an all-degraded fleet fails open and keeps serving. *)
let test_degraded_routing () =
  let r =
    serve ~cfg:{ base with Serve.workers = 2; degraded_instances = [ 0 ] } ()
  in
  let stat id = List.nth r.Serve.r_instances id in
  Alcotest.(check int) "instance 0 routed around" 0 (stat 0).Serve.i_batches;
  Alcotest.(check int) "instance 1 took everything" 12 (stat 1).Serve.i_served;
  Alcotest.(check int) "all served" 12 r.Serve.r_served;
  let fail_open =
    serve ~cfg:{ base with Serve.workers = 2; degraded_instances = [ 0; 1 ] } ()
  in
  Alcotest.(check int) "fail-open still serves" 12 fail_open.Serve.r_served

(* Accumulated faults push an instance out of the rotation mid-run. *)
let test_degrade_after_faults () =
  let r =
    serve
      ~cfg:
        {
          base with
          Serve.workers = 2;
          plan = flip_plan;
          retry_budget = 5;
          degrade_after = Some 1;
        }
      ()
  in
  let degraded =
    List.filter (fun i -> i.Serve.i_degraded_at <> None) r.Serve.r_instances
  in
  Alcotest.(check bool) "at least one instance degraded" true (degraded <> []);
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "instance %d degraded only after faults" i.Serve.i_id)
        true
        (i.Serve.i_faults >= 1))
    degraded;
  Alcotest.(check bool) "most requests survive via retries" true
    (r.Serve.r_served > 0);
  Alcotest.(check int) "books balance" 12 (r.Serve.r_served + r.Serve.r_aborted)

(* A zero retry budget turns every detected fault into a typed abort:
   the modeled runtime returns an error, never corrupt data. *)
let test_abort_on_exhausted_retries () =
  let r =
    serve
      ~cfg:
        {
          base with
          Serve.plan =
            Result.get_ok (Fault.Plan.of_string "seed=3,dma_in@every=1:flip");
          retry_budget = 0;
        }
      ()
  in
  Alcotest.(check int) "every request aborts" 12 r.Serve.r_aborted;
  Alcotest.(check int) "none served" 0 r.Serve.r_served;
  List.iter
    (fun (_, o) ->
      match o with
      | Serve.Aborted { o_site; o_attempts; _ } ->
          Alcotest.(check string) "failing site" "dma_in" o_site;
          Alcotest.(check int) "one attempt" 1 o_attempts
      | _ -> Alcotest.fail "expected an aborted outcome")
    r.Serve.r_outcomes

(* Served requests carry the digest of the simulated output, which must
   match running the artifact directly on the same payload. *)
let test_digest_matches_direct_run () =
  let artifact, g = Lazy.force fixture in
  let r = serve ~cfg:{ base with Serve.requests = 3 } () in
  List.iter
    (fun (req, o) ->
      match o with
      | Serve.Served { o_digest; o_service; _ } ->
          let inputs = Models.Zoo.random_input ~seed:req.Serve.r_input_seed g in
          let _, rep = Htvm.Compile.run artifact ~inputs in
          Alcotest.(check int)
            "service cycles = a dedicated machine's cycles"
            (Htvm.Compile.full_cycles rep)
            o_service;
          Alcotest.(check bool) "digest well-formed" true
            (String.length o_digest = 32)
      | _ -> Alcotest.fail "expected served")
    r.Serve.r_outcomes

(* The compiled-plan fast path is invisible at the serve level: the
   functional tally is byte-identical with plans disabled. *)
let test_tally_plan_invariant () =
  let on = Serve.tally (serve ~cfg:base ()) in
  let off = Serve.tally (serve ~cfg:{ base with Serve.use_plan = false } ()) in
  Alcotest.(check string) "plan on/off tallies identical" on off;
  let faulty = { base with Serve.plan = flip_plan; retry_budget = 2 } in
  Alcotest.(check string) "under faults too"
    (Serve.tally (serve ~cfg:faulty ()))
    (Serve.tally (serve ~cfg:{ faulty with Serve.use_plan = false } ()))

(* input_mix folds request seeds onto a small pool without disturbing the
   arrival stream: scheduling is unchanged at any mix, and the tally's
   distinct-input count collapses to at most the pool size. *)
let test_input_mix () =
  let run mix = serve ~cfg:{ base with Serve.input_mix = mix } () in
  let r0 = run 0 and r3 = run 3 in
  List.iter2
    (fun (a, _) (b, _) ->
      Alcotest.(check int) "arrival stream invariant under mix"
        a.Serve.r_arrival b.Serve.r_arrival)
    r0.Serve.r_outcomes r3.Serve.r_outcomes;
  let distinct_seeds r =
    List.sort_uniq compare
      (List.map (fun (req, _) -> req.Serve.r_input_seed) r.Serve.r_outcomes)
  in
  Alcotest.(check bool) "12 unmixed requests draw >3 distinct seeds" true
    (List.length (distinct_seeds r0) > 3);
  Alcotest.(check bool) "mix=3 collapses to <=3 seeds" true
    (List.length (distinct_seeds r3) <= 3);
  Alcotest.(check bool) "tally reports the collapse" true
    (Helpers.contains (Serve.tally r3) "digests distinct-inputs=");
  match serve ~cfg:{ base with Serve.input_mix = -1 } () with
  | _ -> Alcotest.fail "negative input_mix accepted"
  | exception Invalid_argument _ -> ()

(* Draws are at most 1_000_000, so a pool of K > 1_000_001 seeds is never
   read past its first 1_000_001 entries: every larger mix serves the
   same requests, and none allocates more than that. *)
let test_input_mix_huge () =
  let request_lines mix =
    Serve.tally (serve ~cfg:{ base with Serve.requests = 4; input_mix = mix } ())
    |> String.split_on_char '\n'
    |> List.filter (String.starts_with ~prefix:"req ")
  in
  let reference = request_lines 1_000_001 in
  Alcotest.(check int) "one line per request" 4 (List.length reference);
  Alcotest.(check (list string)) "mix max_int" reference (request_lines max_int)

(* Memoization dedupes admitted requests by input digest before the pool
   fan-out: the functional tally must not move (only telemetry does), the
   hit/miss books must balance against the served count, and it refuses
   to run under fault injection (executions must be input-pure). *)
let test_memoize () =
  let mixed = { base with Serve.input_mix = 3 } in
  let plain = serve ~cfg:mixed () in
  let memo = serve ~cfg:{ mixed with Serve.memoize = true } () in
  Alcotest.(check string) "memoize leaves the tally byte-identical"
    (Serve.tally plain) (Serve.tally memo);
  Alcotest.(check int) "plain run counts no hits" 0 plain.Serve.r_memo_hits;
  Alcotest.(check bool) "shared inputs hit the memo" true
    (memo.Serve.r_memo_hits > 0);
  Alcotest.(check bool) "misses = distinct executions <= pool size" true
    (memo.Serve.r_memo_misses <= 3);
  Alcotest.(check int) "hits + misses cover every served request"
    memo.Serve.r_served
    (memo.Serve.r_memo_hits + memo.Serve.r_memo_misses);
  Alcotest.(check bool) "summary mentions the memo" true
    (Helpers.contains (Serve.summary memo) "memoize");
  match serve ~cfg:{ mixed with Serve.memoize = true; plan = flip_plan } () with
  | _ -> Alcotest.fail "memoize accepted a fault plan"
  | exception Invalid_argument _ -> ()

let test_percentiles () =
  let p = Serve.percentiles_of [] in
  Alcotest.(check int) "empty count" 0 p.Serve.p_count;
  Alcotest.(check int) "empty max" 0 p.Serve.p_max;
  let p = Serve.percentiles_of [ 5 ] in
  Alcotest.(check int) "singleton p99" 5 p.Serve.p99;
  let p = Serve.percentiles_of (List.init 100 (fun i -> 100 - i)) in
  Alcotest.(check int) "min" 1 p.Serve.p_min;
  Alcotest.(check int) "p50" 50 p.Serve.p50;
  Alcotest.(check int) "p95" 95 p.Serve.p95;
  Alcotest.(check int) "p99" 99 p.Serve.p99;
  Alcotest.(check int) "max" 100 p.Serve.p_max;
  Alcotest.(check (float 1e-9)) "mean" 50.5 p.Serve.p_mean

(* Boundary-condition sweep for admission and batching: empty request
   streams, batches wider than the stream, a zero queue depth, the
   single-instance all-degraded fail-open, and the mean_gap <= 0 auto
   mode must all either serve cleanly or reject loudly. *)
let test_boundary_conditions () =
  (* requests = 0: a clean no-op in both arrival modes. *)
  List.iter
    (fun arrival ->
      let r = serve ~cfg:{ base with Serve.requests = 0; arrival } () in
      Alcotest.(check int) "no outcomes" 0 (List.length r.Serve.r_outcomes);
      Alcotest.(check int) "empty percentiles" 0 r.Serve.r_service.Serve.p_count;
      Alcotest.(check int) "zero makespan" 0 r.Serve.r_makespan;
      ignore (Serve.tally r);
      ignore (Serve.summary r);
      ignore (Trace.Json.to_string (Serve.to_json r)))
    [ Serve.Closed; Serve.Poisson { mean_gap = 0 } ];
  (* max_batch wider than the stream: one batch takes everything. *)
  let wide = serve ~cfg:{ base with Serve.requests = 3; max_batch = 64 } () in
  Alcotest.(check int) "one wide batch" 1
    (List.fold_left (fun acc i -> acc + i.Serve.i_batches) 0 wide.Serve.r_instances);
  Alcotest.(check int) "all served" 3 wide.Serve.r_served;
  (* queue_depth = 0 cannot admit anything: rejected loudly. *)
  (match serve ~cfg:{ base with Serve.queue_depth = 0 } () with
  | _ -> Alcotest.fail "queue_depth 0 accepted"
  | exception Invalid_argument _ -> ());
  (* a single degraded instance is the whole fleet: fail open. *)
  let alone =
    serve ~cfg:{ base with Serve.workers = 1; degraded_instances = [ 0 ] } ()
  in
  Alcotest.(check int) "all-degraded singleton fleet fails open" 12
    alone.Serve.r_served;
  (* mean_gap 0 means auto; a negative gap is a violation, not another
     spelling of auto. *)
  match serve ~cfg:{ base with Serve.arrival = Serve.Poisson { mean_gap = -5 } } () with
  | _ -> Alcotest.fail "mean_gap -5 accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "mean_gap -5 refused"
        "Serve.run: mean_gap must be >= 0 (0 = auto)" msg

(* The hand-picked sweep above, promoted to a generator: any workers,
   jobs, arrival mode, queue depth, input mix and fault-plan toggle
   leave the tally and the cycles-track metrics byte-identical to the
   1-worker/1-job run. *)
let prop_tally_invariance =
  let gen =
    QCheck.Gen.(
      let* workers = int_range 1 4 in
      let* jobs = oneofl [ 1; 4 ] in
      let* poisson = bool in
      let* queue_depth = int_range 1 4 in
      let* input_mix = oneofl [ 0; 2 ] in
      let* faulty = bool in
      let* requests = int_range 0 10 in
      let* seed = int_range 0 10_000 in
      return (workers, jobs, poisson, queue_depth, input_mix, faulty, requests, seed))
  in
  let print (w, j, p, qd, mix, f, n, seed) =
    Printf.sprintf
      "workers=%d jobs=%d poisson=%b depth=%d mix=%d faulty=%b requests=%d seed=%d"
      w j p qd mix f n seed
  in
  Helpers.qtest ~count:8 "serve tally/metrics invariant over fleet shape"
    (QCheck.make ~print gen)
    (fun (workers, jobs, poisson, queue_depth, input_mix, faulty, requests, seed) ->
      let cfg w j =
        {
          base with
          Serve.workers = w;
          jobs = j;
          arrival =
            (if poisson then Serve.Poisson { mean_gap = 0 } else Serve.Closed);
          queue_depth;
          input_mix;
          plan = (if faulty then flip_plan else Fault.Plan.empty);
          retry_budget = 2;
          requests;
          seed;
        }
      in
      let artifact, g = Lazy.force fixture in
      let at w j =
        let reg = Metrics.create () in
        let r = Serve.run ~metrics:reg (cfg w j) artifact ~graph:g in
        ( Serve.tally r,
          Helpers.cycles_section (Metrics.to_prometheus r.Serve.r_metrics) )
      in
      at 1 1 = at workers jobs)

(* Open loop, the observed plane keeps time order: on each instance,
   batch starts never decrease as the window index grows, no request
   starts before its window closes, and one worker serves in arrival
   order. *)
let prop_observed_time_order =
  let gen =
    QCheck.Gen.(
      let* workers = int_range 1 4 in
      let* max_batch = int_range 1 4 in
      let* queue_depth = int_range 1 6 in
      let* faulty = bool in
      let* requests = int_range 2 24 in
      let* seed = int_range 0 10_000 in
      return (workers, max_batch, queue_depth, faulty, requests, seed))
  in
  let print (w, b, qd, f, n, seed) =
    Printf.sprintf "workers=%d batch=%d depth=%d faulty=%b requests=%d seed=%d" w b
      qd f n seed
  in
  Helpers.qtest ~count:20 "serve observed plane keeps time order"
    (QCheck.make ~print gen)
    (fun (workers, max_batch, queue_depth, faulty, requests, seed) ->
      let served workers =
        let r =
          serve
            ~cfg:
              {
                base with
                Serve.workers;
                max_batch;
                queue_depth;
                requests;
                seed;
                arrival = Serve.Poisson { mean_gap = 0 };
                plan = (if faulty then flip_plan else Fault.Plan.empty);
                retry_budget = 2;
              }
            ()
        in
        ( r.Serve.r_window,
          List.filter_map
            (fun ((q : Serve.request), o) ->
              match o with
              | Serve.Served { o_instance; o_batch; o_start; _ } ->
                  Some (o_instance, o_batch, q.Serve.r_arrival / r.Serve.r_window, o_start)
              | Serve.Rejected _ | Serve.Aborted _ -> None)
            r.Serve.r_outcomes )
      in
      let window, fleet = served workers in
      let _, single = served 1 in
      Helpers.served_in_time_order ~window fleet
      && Helpers.monotone_starts (List.mapi (fun i (_, _, _, s) -> (0, i, s)) single))

let test_rejects_bad_config () =
  let expect field cfg =
    match serve ~cfg () with
    | _ -> Alcotest.failf "%s accepted" field
    | exception Invalid_argument _ -> ()
  in
  expect "workers 0" { base with Serve.workers = 0 };
  expect "max_batch 0" { base with Serve.max_batch = 0 };
  expect "queue_depth 0" { base with Serve.queue_depth = 0 };
  expect "requests -1" { base with Serve.requests = -1 }

(* [validate] diagnoses the same violations [run] raises on, as typed
   [Bad_config] values — what `htvmc serve` prints before exiting 1
   instead of surfacing a backtrace. *)
let test_validate_typed_errors () =
  let expect_bad field cfg =
    match Serve.validate cfg with
    | Error (Serve.Bad_config msg) ->
        Alcotest.(check bool)
          (field ^ ": message names the violation")
          true
          (Helpers.contains msg "Serve.run:")
    | Error e ->
        Alcotest.failf "%s: expected Bad_config, got %s" field
          (Serve.mt_error_to_string e)
    | Ok () -> Alcotest.failf "%s: accepted" field
  in
  Alcotest.(check bool) "default config validates" true
    (Serve.validate base = Ok ());
  expect_bad "memoize under faults"
    { base with Serve.memoize = true; plan = flip_plan };
  expect_bad "workers 0" { base with Serve.workers = 0 };
  expect_bad "duplicate degraded ids"
    { base with Serve.workers = 4; degraded_instances = [ 1; 1 ] };
  (* The diagnosis matches what [run] would raise, message for message. *)
  let bad = { base with Serve.memoize = true; plan = flip_plan } in
  match serve ~cfg:bad () with
  | _ -> Alcotest.fail "run accepted memoize under a fault plan"
  | exception Invalid_argument msg -> (
      match Serve.validate bad with
      | Error (Serve.Bad_config msg') ->
          Alcotest.(check string) "same message on both surfaces" msg msg'
      | _ -> Alcotest.fail "validate accepted what run rejected")

(* The report renderers agree with the outcome list they render. *)
let test_report_renderings () =
  let r = serve ~cfg:base () in
  let tally = Serve.tally r in
  Alcotest.(check bool) "tally has one line per request + header/footer" true
    (List.length (String.split_on_char '\n' (String.trim tally)) = 12 + 6);
  Alcotest.(check bool) "tally counts distinct digests" true
    (Helpers.contains tally "digests distinct-inputs=");
  let json = Trace.Json.to_string (Serve.to_json r) in
  Alcotest.(check bool) "json mentions outcomes" true
    (Helpers.contains json "\"outcomes\":");
  Alcotest.(check bool) "summary mentions throughput" true
    (Helpers.contains (Serve.summary r) "throughput")

(* A negative dispatch overhead would finish requests before they
   arrive. Every surface rejects it like any other numeric violation:
   [validate] with a typed [Bad_config], [run] with [Invalid_argument],
   and a campaign before any rate point runs. *)
let test_rejects_negative_overhead () =
  let bad = { base with Serve.dispatch_overhead = -1 } in
  (match Serve.validate bad with
  | Error (Serve.Bad_config msg) ->
      Alcotest.(check bool) "message names the field" true
        (Helpers.contains msg "dispatch_overhead")
  | Error e -> Alcotest.failf "expected Bad_config, got %s" (Serve.mt_error_to_string e)
  | Ok () -> Alcotest.fail "validate accepted a negative dispatch overhead");
  (match serve ~cfg:bad () with
  | _ -> Alcotest.fail "run accepted a negative dispatch overhead"
  | exception Invalid_argument _ -> ());
  let artifact, g = Lazy.force fixture in
  match Campaign.run { Campaign.default with Campaign.c_serve = bad } artifact ~graph:g with
  | Ok _ -> Alcotest.fail "campaign accepted a negative dispatch overhead"
  | Error msg ->
      Alcotest.(check bool) "campaign error names the field" true
        (Helpers.contains msg "dispatch_overhead")

(* A negative retry budget used to act as 0: the guard aborts once a
   fault's attempts exceed the budget. It is a config violation on every
   surface, with the same message from [validate] and [run], and a
   campaign fails before its first rate point. *)
let test_rejects_negative_retry_budget () =
  let bad = { base with Serve.retry_budget = -2 } in
  let want = "Serve.run: retry_budget must be >= 0" in
  (match Serve.validate bad with
  | Error (Serve.Bad_config msg) -> Alcotest.(check string) "validate" want msg
  | Error e -> Alcotest.failf "expected Bad_config, got %s" (Serve.mt_error_to_string e)
  | Ok () -> Alcotest.fail "validate accepted a negative retry budget");
  (match serve ~cfg:bad () with
  | _ -> Alcotest.fail "run accepted a negative retry budget"
  | exception Invalid_argument msg -> Alcotest.(check string) "run" want msg);
  Alcotest.(check bool) "a zero budget is valid" true
    (Serve.validate { base with Serve.retry_budget = 0 } = Ok ());
  let artifact, g = Lazy.force fixture in
  match Campaign.run { Campaign.default with Campaign.c_serve = bad } artifact ~graph:g with
  | Ok _ -> Alcotest.fail "campaign accepted a negative retry budget"
  | Error msg -> Alcotest.(check string) "campaign" want msg

(* A [degrade_after] of 0 or below used to degrade every instance that
   served a batch, with no fault reported. *)
let test_rejects_degrade_after_below_one () =
  let want = "Serve.run: degrade_after must be >= 1" in
  List.iter
    (fun n ->
      let bad = { base with Serve.degrade_after = Some n } in
      (match Serve.validate bad with
      | Error (Serve.Bad_config msg) -> Alcotest.(check string) "validate" want msg
      | Error e ->
          Alcotest.failf "expected Bad_config, got %s" (Serve.mt_error_to_string e)
      | Ok () -> Alcotest.failf "validate accepted degrade_after %d" n);
      match serve ~cfg:bad () with
      | _ -> Alcotest.failf "run accepted degrade_after %d" n
      | exception Invalid_argument msg -> Alcotest.(check string) "run" want msg)
    [ 0; -1 ];
  Alcotest.(check bool) "degrade_after 1 is valid" true
    (Serve.validate { base with Serve.degrade_after = Some 1 } = Ok ())

(* Each auto sentinel is one value, and every rule that needs no plan
   is checked without one: [validate] refuses what [run] would, except
   an explicit health cap below an auto probation window that only the
   plan resolves; [mt_validate] works over model names, before any
   model is compiled; [Campaign.validate] includes [Serve.validate] of
   its base config. *)
let test_validators_need_no_plan () =
  let refused want cfg =
    match Serve.validate cfg with
    | Error (Serve.Bad_config msg) ->
        Alcotest.(check string) want ("Serve.run: " ^ want) msg
    | Error e -> Alcotest.failf "expected Bad_config, got %s" (Serve.mt_error_to_string e)
    | Ok () -> Alcotest.failf "validate accepted: %s" want
  in
  let health f = Some (f { Health.default with Health.probation_window = 0 }) in
  refused "mean_gap must be >= 0 (0 = auto)"
    { base with Serve.arrival = Serve.Poisson { mean_gap = -1 } };
  refused "window must be >= 0 (0 = auto)" { base with Serve.window = -1 };
  refused "health: probation_window must be >= 0 (0 = auto)"
    { base with Serve.health = health (fun h -> { h with Health.probation_window = -1 }) };
  refused "health: probe_interval must be >= -1 (-1 = auto)"
    { base with Serve.health = health (fun h -> { h with Health.probe_interval = -2 }) };
  refused "health: probe_cost must be >= 0 (0 = auto)"
    { base with Serve.health = health (fun h -> { h with Health.probe_cost = -1 }) };
  refused "health: backoff_cap must be >= 0 (0 = auto)"
    { base with Serve.health = health (fun h -> { h with Health.backoff_cap = -1 }) };
  refused "health: fault_threshold must be >= 1"
    { base with Serve.health = health (fun h -> { h with Health.fault_threshold = 0 }) };
  (* A cap below an explicit window, or below the 2 cycles any auto
     window resolves to, is refused without the plan. *)
  refused "health: backoff_cap must be >= probation_window"
    { base with
      Serve.health =
        health (fun h -> { h with Health.probation_window = 5; backoff_cap = 1 }) };
  refused "health: backoff_cap must be >= probation_window"
    { base with Serve.health = health (fun h -> { h with Health.backoff_cap = 1 }) };
  let auto =
    {
      base with
      Serve.arrival = Serve.Poisson { mean_gap = 0 };
      window = 0;
      health =
        health (fun h ->
            { h with Health.probe_interval = -1; probe_cost = 0; backoff_cap = 0 });
    }
  in
  Alcotest.(check bool) "the sentinels themselves validate" true
    (Serve.validate auto = Ok ());
  (* The one rule left to the plan: a cap of 2 is below the fixture's
     auto window, which [run] resolves. *)
  let plan_only =
    { base with Serve.health = health (fun h -> { h with Health.backoff_cap = 2 }) }
  in
  Alcotest.(check bool) "a cap of 2 with an auto window validates" true
    (Serve.validate plan_only = Ok ());
  (match serve ~cfg:plan_only () with
  | _ -> Alcotest.fail "run accepted a cap below the resolved window"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "run refuses it"
        "Serve.run: health: backoff_cap must be >= probation_window" msg);
  let mt = Test_mtserve.base and classes = Test_mtserve.classes in
  let names = [ "alpha"; "beta" ] in
  Alcotest.(check bool) "mt_validate over names" true
    (Serve.mt_validate mt ~models:names ~classes = Ok ());
  (match Serve.mt_validate mt ~models:[ "alpha" ] ~classes with
  | Error (Serve.Unknown_model { class_name = "batch"; model = "beta" }) -> ()
  | _ -> Alcotest.fail "mt_validate missed a class naming an absent model");
  (match
     Serve.mt_validate
       { mt with Serve.mt_placement = Serve.Pinned; mt_workers = 1 }
       ~models:names ~classes
   with
  | Error (Serve.Bad_config msg) ->
      Alcotest.(check string) "pinned needs workers >= models"
        "pinned placement needs workers >= distinct models (1 < 2)" msg
  | _ -> Alcotest.fail "mt_validate missed a pinned fleet too small");
  (match
     Serve.mt_validate
       {
         mt with
         Serve.mt_arrival =
           Serve.Mt_replay [ { Serve.t_cycle = 0; t_class = "nope"; t_seed = 1; t_line = 2 } ];
       }
       ~models:names ~classes
   with
  | Error (Serve.Unknown_class { class_name = "nope"; context = "trace line 2" }) -> ()
  | _ -> Alcotest.fail "mt_validate missed a trace naming an absent class");
  (match Serve.mt_validate { mt with Serve.mt_window = -1 } ~models:names ~classes with
  | Error (Serve.Bad_config "window must be >= 0 (0 = auto)") -> ()
  | _ -> Alcotest.fail "mt_validate accepted a negative window");
  match
    Campaign.validate
      { Campaign.default with Campaign.c_serve = { base with Serve.window = -1 } }
  with
  | Error msg ->
      Alcotest.(check string) "campaign" "Serve.run: window must be >= 0 (0 = auto)" msg
  | Ok () -> Alcotest.fail "Campaign.validate accepted a negative window"

(* --- serving goldens --------------------------------------------------

   Byte-level pins of serving output across commits (every other serving
   test compares two runs of one binary). Each golden under
   [golden/serve/] holds one run's tally, JSON report, Prometheus dump
   and Chrome trace. On a mismatch the test names the first differing
   line and writes the fresh rendering to [<golden>.actual] next to the
   golden; an intentional change is re-blessed by copying that file over
   the golden. *)

let golden_dir = Filename.concat "golden" "serve"

let sections parts =
  String.concat ""
    (List.map (fun (title, body) -> Printf.sprintf "==== %s ====\n%s\n" title body) parts)

(* The first line where [expected] and [actual] differ, with a short
   excerpt around the first differing column (JSON renders on one
   line). *)
let first_difference expected actual =
  let rec go n = function
    | e :: es, a :: as_ when e = a -> go (n + 1) (es, as_)
    | e :: _, a :: _ ->
        let col =
          let rec c i =
            if i < String.length e && i < String.length a && e.[i] = a.[i] then c (i + 1)
            else i
          in
          c 0
        in
        let excerpt s =
          let lo = max 0 (col - 40) in
          String.sub s lo (min 100 (String.length s - lo))
        in
        Printf.sprintf "line %d, column %d:\n  expected: %s\n  actual:   %s" n (col + 1)
          (excerpt e) (excerpt a)
    | [], _ -> Printf.sprintf "line %d: expected end of file" n
    | _, [] -> Printf.sprintf "line %d: actual output ends early" n
  in
  go 1 (String.split_on_char '\n' expected, String.split_on_char '\n' actual)

let check_golden name actual =
  let path = Filename.concat golden_dir (name ^ ".txt") in
  let expected =
    if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all
    else ""
  in
  if actual <> expected then begin
    let out = path ^ ".actual" in
    (try if not (Sys.file_exists golden_dir) then Sys.mkdir golden_dir 0o755
     with Sys_error _ -> ());
    Out_channel.with_open_bin out (fun oc -> output_string oc actual);
    Alcotest.failf "golden %s differs at %s\n(wrote %s; copy it over %s to re-bless)"
      name
      (first_difference expected actual)
      (Sys.getcwd () ^ "/" ^ out)
      path
  end

let single_golden cfg () =
  let artifact, g = Lazy.force fixture in
  let trace = Trace.create () in
  let r = Serve.run ~trace cfg artifact ~graph:g in
  sections
    [
      ("tally", Serve.tally r);
      ("json", Trace.Json.to_string (Serve.to_json r));
      ("prometheus", Metrics.to_prometheus r.Serve.r_metrics);
      ("chrome trace", Trace.to_chrome_json trace);
    ]

let mt_golden ?(classes = Test_mtserve.classes) cfg () =
  let trace = Trace.create () in
  match
    Serve.mt_run ~trace cfg ~models:(Lazy.force Test_mtserve.fixture) ~classes
  with
  | Error e -> Alcotest.failf "mt_run failed: %s" (Serve.mt_error_to_string e)
  | Ok r ->
      sections
        [
          ("tally", Serve.mt_tally r);
          ("json", Trace.Json.to_string (Serve.mt_to_json r));
          ("prometheus", Metrics.to_prometheus r.Serve.mt_metrics);
          ("chrome trace", Trace.to_chrome_json trace);
        ]

(* A short probation so lifecycles turn over within a few dozen
   requests; probes fail often enough to relapse. *)
let health =
  Some
    {
      Health.default with
      Health.probation_window = 8_000;
      probe_interval = 1_000;
      probe_cost = 500;
      probe_fail_prob = 0.3;
    }
let poisson = Serve.Poisson { mean_gap = 0 }
let mt_poisson = Serve.Mt_poisson { mean_gap = 0 }
let mt_base = Test_mtserve.base

(* Every service-derived health field left at its auto sentinel, so the
   resolved lifecycle is a function of the served models' fault-free
   service cycles. *)
let auto_health =
  Some
    {
      Health.default with
      Health.probation_window = 0;
      probe_interval = -1;
      probe_cost = 0;
      backoff_cap = 0;
      probe_fail_prob = 0.3;
    }

let campaign_golden () =
  let artifact, g = Lazy.force fixture in
  let cfg =
    {
      Campaign.default with
      Campaign.c_serve =
        {
          base with
          Serve.workers = 2;
          arrival = Serve.Poisson { mean_gap = 0 };
          queue_depth = 2;
          retry_budget = 1;
          slo_sojourn = Some 7_000;
          health;
        };
      c_rates = [ 0.0; 0.1; 0.5 ];
    }
  in
  match Campaign.run cfg artifact ~graph:g with
  | Error msg -> Alcotest.failf "campaign failed: %s" msg
  | Ok t ->
      sections
        [
          ("tally", Campaign.tally t);
          ("json", Trace.Json.to_string (Campaign.to_json t));
        ]


let goldens =
  [
    ("closed", single_golden { base with Serve.workers = 3 });
    ( "closed-health",
      single_golden
        {
          base with
          Serve.workers = 2;
          plan = flip_plan;
          retry_budget = 2;
          health;
          degraded_instances = [ 1 ];
        } );
    ( "poisson-faults-health",
      single_golden
        {
          base with
          Serve.workers = 3;
          requests = 24;
          arrival = poisson;
          queue_depth = 2;
          slo_sojourn = Some 7_000;
          plan = flip_plan;
          retry_budget = 1;
          health;
          degraded_instances = [ 0 ];
        } );
    ( "memoize",
      single_golden
        {
          base with
          Serve.workers = 2;
          requests = 16;
          arrival = poisson;
          queue_depth = 3;
          memoize = true;
          input_mix = 4;
        } );
    ( "degrade-after",
      single_golden
        {
          base with
          Serve.workers = 3;
          plan = flip_plan;
          retry_budget = 2;
          degrade_after = Some 2;
        } );
    ( "mt-swap-slo",
      mt_golden
        ~classes:
          [
            {
              Serve.k_name = "interactive";
              k_model = "alpha";
              k_slo = Some 12_000;
              k_weight = 2;
            };
            { Serve.k_name = "batch"; k_model = "beta"; k_slo = Some 20_000; k_weight = 1 };
          ]
        {
          mt_base with
          Serve.mt_requests = 24;
          mt_arrival = mt_poisson;
          mt_placement = Serve.Swap;
        } );
    ( "mt-pinned-health",
      mt_golden
        {
          mt_base with
          Serve.mt_workers = 3;
          mt_requests = 24;
          mt_arrival = mt_poisson;
          mt_placement = Serve.Pinned;
          mt_health = health;
          mt_degraded_instances = [ 1 ];
        } );
    ( "mt-autotune-diurnal",
      mt_golden
        {
          mt_base with
          Serve.mt_max_batch = 0;
          mt_requests = 24;
          mt_arrival = Serve.Mt_diurnal { mean_gap = 0; period = 0 };
        } );
    ( "mt-autotune-bursty",
      mt_golden
        {
          mt_base with
          Serve.mt_max_batch = 0;
          mt_requests = 24;
          mt_arrival = Serve.Mt_bursty { mean_gap = 0; burst = 4 };
        } );
    ( "mt-replay",
      fun () ->
        match Serve.load_arrival_trace "golden/mtserve.trace" with
        | Error e -> Alcotest.failf "golden trace: %s" (Serve.mt_error_to_string e)
        | Ok entries -> mt_golden { mt_base with Serve.mt_arrival = Serve.Mt_replay entries } ()
    );
    ( "poisson-degrade-after",
      single_golden
        {
          base with
          Serve.workers = 3;
          requests = 24;
          arrival = poisson;
          queue_depth = 3;
          plan = flip_plan;
          retry_budget = 2;
          degrade_after = Some 2;
        } );
    ( "mt-closed-swap-health",
      mt_golden
        {
          mt_base with
          Serve.mt_workers = 3;
          mt_requests = 18;
          mt_placement = Serve.Swap;
          mt_health = health;
          mt_degraded_instances = [ 0 ];
        } );
    ( "mt-pinned-queue-shed",
      mt_golden
        {
          mt_base with
          Serve.mt_workers = 3;
          mt_requests = 24;
          mt_arrival = mt_poisson;
          mt_queue_depth = 1;
          mt_placement = Serve.Pinned;
        } );
    ("campaign", campaign_golden);
    ( "health-auto",
      single_golden
        {
          base with
          Serve.workers = 2;
          requests = 20;
          arrival = poisson;
          queue_depth = 3;
          plan = flip_plan;
          retry_budget = 2;
          health = auto_health;
          degraded_instances = [ 0 ];
        } );
    (* Auto gap, window and health over two models of different service
       time: every value resolves against the slower one. *)
    ( "mt-health-auto",
      mt_golden
        {
          mt_base with
          Serve.mt_workers = 3;
          mt_requests = 24;
          mt_arrival = mt_poisson;
          mt_placement = Serve.Swap;
          mt_health = auto_health;
          mt_degraded_instances = [ 1 ];
        } );
  ]

(* Auto resolution reads the plan's fault-free service cycles and runs
   nothing: an artifact whose every run faults (its weights sit past L2)
   resolves the same gap, window and health fields as the sound one,
   and a stream of zero requests returns a report on both front ends. *)
let test_auto_resolution_runs_nothing () =
  let artifact, g = Lazy.force fixture in
  let platform = artifact.Htvm.Compile.cfg.Htvm.Compile.platform in
  let prog = artifact.Htvm.Compile.program in
  let past_l2 = platform.Arch.Platform.l2.Arch.Memory.size_bytes in
  let steps =
    List.map
      (function
        | Sim.Program.Accel a when a.weights_offset >= 0 ->
            Sim.Program.Accel { a with weights_offset = past_l2 }
        | step -> step)
      prog.Sim.Program.steps
  in
  let program = { prog with Sim.Program.steps } in
  let faulting =
    { artifact with Htvm.Compile.program; plan = Sim.Plan.build ~platform program }
  in
  (match Htvm.Compile.run faulting ~inputs:(Models.Zoo.random_input ~seed:1 g) with
  | _ -> Alcotest.fail "the faulting artifact ran"
  | exception Sim.Mem.Fault _ -> ());
  let cfg = { base with Serve.requests = 0; arrival = poisson; health = auto_health } in
  Alcotest.(check string) "same resolved header"
    (Serve.tally (Serve.run cfg artifact ~graph:g))
    (Serve.tally (Serve.run cfg faulting ~graph:g));
  match
    Serve.mt_run
      { mt_base with Serve.mt_requests = 0; mt_arrival = mt_poisson; mt_health = auto_health }
      ~models:[ { Serve.m_name = "main"; m_artifact = faulting; m_graph = g } ]
      ~classes:[ { Serve.k_name = "all"; k_model = "main"; k_slo = None; k_weight = 1 } ]
  with
  | Error e -> Alcotest.failf "mt_run failed: %s" (Serve.mt_error_to_string e)
  | Ok r ->
      Alcotest.(check int) "auto window is the service cycles"
        (Htvm.Compile.service_cycles artifact) r.Serve.mt_resolved_window

let golden_tests =
  List.map
    (fun (name, render) ->
      Alcotest.test_case ("golden " ^ name) `Quick (fun () ->
          check_golden name (render ())))
    goldens

let suites =
  [ ( "serve",
      [ Alcotest.test_case "tally invariant over workers/jobs" `Quick
          test_tally_worker_invariant;
        Alcotest.test_case "throughput scales with fleet" `Quick
          test_throughput_scales;
        Alcotest.test_case "batching amortizes dispatch" `Quick
          test_batching_amortizes_overhead;
        Alcotest.test_case "admission shedding" `Quick test_admission_shedding;
        Alcotest.test_case "degraded routing" `Quick test_degraded_routing;
        Alcotest.test_case "degrade after faults" `Quick test_degrade_after_faults;
        Alcotest.test_case "abort on exhausted retries" `Quick
          test_abort_on_exhausted_retries;
        Alcotest.test_case "digests match direct runs" `Quick
          test_digest_matches_direct_run;
        Alcotest.test_case "tally invariant over plan path" `Quick
          test_tally_plan_invariant;
        Alcotest.test_case "input mix" `Quick test_input_mix;
        Alcotest.test_case "huge input mix" `Quick test_input_mix_huge;
        Alcotest.test_case "memoize" `Quick test_memoize;
        Alcotest.test_case "percentiles" `Quick test_percentiles;
        Alcotest.test_case "boundary conditions" `Quick test_boundary_conditions;
        Alcotest.test_case "rejects bad config" `Quick test_rejects_bad_config;
        Alcotest.test_case "validate typed errors" `Quick
          test_validate_typed_errors;
        Alcotest.test_case "report renderings" `Quick test_report_renderings;
        Alcotest.test_case "rejects negative dispatch overhead" `Quick
          test_rejects_negative_overhead;
        Alcotest.test_case "rejects negative retry budget" `Quick
          test_rejects_negative_retry_budget;
        Alcotest.test_case "rejects degrade_after below 1" `Quick
          test_rejects_degrade_after_below_one;
        Alcotest.test_case "validators need no plan" `Quick test_validators_need_no_plan;
        Alcotest.test_case "auto resolution runs nothing" `Quick
          test_auto_resolution_runs_nothing;
        prop_tally_invariance;
        prop_observed_time_order;
      ]
      @ golden_tests )
  ]
