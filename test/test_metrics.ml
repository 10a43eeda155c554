(* The telemetry registry: instrument arithmetic, strict registration,
   histogram bucket boundaries, snapshots, the three
   exposition formats, and the end-to-end determinism contract — the
   serve-side cycles track is byte-identical across fleet shapes, and
   SLO accounting distinguishes predicted from observed violations. *)

module M = Metrics

let find name snap = List.find (fun m -> m.M.m_name = name) snap

let counter_value m =
  match m.M.m_value with
  | M.Counter n -> n
  | _ -> Alcotest.fail "expected a counter"

(* Instruments record what they were fed, and the snapshot preserves
   registration order within each track. *)
let test_registry_basics () =
  let t = M.create () in
  let c = M.counter t "requests_total" in
  let g = M.gauge t ~track:M.Sched "depth" in
  let h = M.histogram t ~buckets:[ 10; 20 ] "lat" in
  let s = M.series t ~columns:[ "a"; "b" ] "win" in
  M.inc c 3;
  M.inc c 0;
  M.inc c 4;
  M.set g 2.5;
  M.set_int g 7;
  M.observe h 5;
  M.sample s ~ts:100 [ 1.0; 2.0 ];
  M.sample s ~ts:200 [ 3.0; 4.0 ];
  let snap = M.snapshot t in
  Alcotest.(check int) "counter sums" 7 (counter_value (find "requests_total" snap));
  (match (find "depth" snap).M.m_value with
  | M.Gauge v -> Alcotest.(check (float 0.0)) "gauge last write" 7.0 v
  | _ -> Alcotest.fail "expected a gauge");
  (match (find "win" snap).M.m_value with
  | M.Series { columns; samples } ->
      Alcotest.(check (list string)) "columns" [ "a"; "b" ] columns;
      Alcotest.(check int) "two samples" 2 (List.length samples);
      Alcotest.(check bool) "samples in ts order" true
        (List.map fst samples = [ 100; 200 ])
  | _ -> Alcotest.fail "expected a series");
  Alcotest.(check (list string)) "registration order per track"
    [ "requests_total"; "lat"; "win" ]
    (List.filter_map
       (fun m -> if m.M.m_track = M.Cycles then Some m.M.m_name else None)
       snap)

(* Every registration mistake is an Invalid_argument at the call site,
   never a silently merged instrument. *)
let test_strict_registration () =
  let expect what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  let t = M.create () in
  let _ = M.counter t "dup_total" in
  expect "duplicate (name, labels)" (fun () -> M.counter t "dup_total");
  expect "duplicate even across kinds" (fun () -> M.gauge t "dup_total");
  (* same name with distinct labels is a legitimate family *)
  let _ = M.counter t ~labels:[ ("k", "a") ] "fam_total" in
  let _ = M.counter t ~labels:[ ("k", "b") ] "fam_total" in
  expect "duplicate labelled pair" (fun () ->
      M.counter t ~labels:[ ("k", "a") ] "fam_total");
  expect "invalid metric name" (fun () -> M.counter t "0bad");
  expect "invalid label name" (fun () ->
      M.counter t ~labels:[ ("0k", "v") ] "ok_total");
  expect "duplicate label name" (fun () ->
      M.counter t ~labels:[ ("k", "a"); ("k", "b") ] "ok_total");
  expect "non-increasing buckets" (fun () ->
      M.histogram t ~buckets:[ 10; 10 ] "h");
  expect "empty columns" (fun () -> M.series t ~columns:[] "s");
  expect "duplicate column" (fun () -> M.series t ~columns:[ "x"; "x" ] "s");
  let c = M.counter t "mono_total" in
  expect "negative increment" (fun () -> M.inc c (-1));
  let s = M.series t ~columns:[ "x" ] "s_ok" in
  expect "sample arity mismatch" (fun () -> M.sample s ~ts:0 [ 1.0; 2.0 ])

(* Bucket bounds are inclusive upper bounds: an observation equal to a
   bound lands in that bucket, one past it in the next, and anything
   beyond the last bound in the implicit +Inf bucket. *)
let test_histogram_bucket_boundaries () =
  let t = M.create () in
  let h = M.histogram t ~buckets:[ 10; 20; 30 ] "lat" in
  List.iter (M.observe h) [ 0; 10; 11; 20; 30; 31; 1000 ];
  match (find "lat" (M.snapshot t)).M.m_value with
  | M.Histogram { bounds; counts; sum; count } ->
      Alcotest.(check (list int)) "bounds" [ 10; 20; 30 ] bounds;
      Alcotest.(check (list int)) "per-bucket, +Inf last" [ 2; 2; 1; 2 ] counts;
      Alcotest.(check int) "sum" (0 + 10 + 11 + 20 + 30 + 31 + 1000) sum;
      Alcotest.(check int) "count" 7 count
  | _ -> Alcotest.fail "expected a histogram"

(* The Prometheus dump carries all three track markers even when empty,
   dedupes HELP/TYPE per family, renders histograms cumulatively and
   series samples with cycle timestamps; cycles_section cuts exactly at
   the first non-deterministic marker. *)
let test_prometheus_rendering () =
  let empty = M.to_prometheus [] in
  List.iter
    (fun marker ->
      Alcotest.(check bool) marker true (Helpers.contains empty marker))
    [ "# track cycles"; "# track sched"; "# track wall" ];
  let t = M.create () in
  let c = M.counter t ~help:"requests" "req_total" in
  M.inc c 2;
  let h = M.histogram t ~buckets:[ 10; 20 ] "lat" in
  List.iter (M.observe h) [ 5; 15; 99 ];
  let s = M.series t ~columns:[ "arr" ] "win" in
  M.sample s ~ts:123 [ 4.0 ];
  List.iter
    (fun ph -> M.set (M.gauge t ~track:M.Wall ~labels:[ ("p", ph) ] "wall_s") 1.0)
    [ "a"; "b" ];
  let dump = M.to_prometheus (M.snapshot t) in
  Alcotest.(check bool) "counter line" true (Helpers.contains dump "req_total 2");
  Alcotest.(check bool) "help text" true
    (Helpers.contains dump "# HELP req_total requests");
  Alcotest.(check bool) "cumulative le=10" true
    (Helpers.contains dump "lat_bucket{le=\"10\"} 1");
  Alcotest.(check bool) "cumulative le=20" true
    (Helpers.contains dump "lat_bucket{le=\"20\"} 2");
  Alcotest.(check bool) "cumulative +Inf" true
    (Helpers.contains dump "lat_bucket{le=\"+Inf\"} 3");
  Alcotest.(check bool) "series sample with ts" true
    (Helpers.contains dump "win_arr 4 123");
  (* one HELP/TYPE per family, not per label variant *)
  let occurrences needle =
    let nl = String.length needle and dl = String.length dump in
    let rec go i n =
      if i + nl > dl then n
      else if String.sub dump i nl = needle then go (i + 1) (n + 1)
      else go (i + 1) n
    in
    go 0 0
  in
  Alcotest.(check int) "TYPE deduped across label variants" 1
    (occurrences "# TYPE wall_s gauge");
  let cyc = Helpers.cycles_section dump in
  Alcotest.(check bool) "cycles section keeps counters" true
    (Helpers.contains cyc "req_total 2");
  Alcotest.(check bool) "cycles section drops wall" false
    (Helpers.contains cyc "wall_s");
  Alcotest.(check bool) "cycles section stops before sched marker" false
    (Helpers.contains cyc "# track sched")

let test_csv_and_json () =
  let t = M.create () in
  let c = M.counter t ~labels:[ ("k", "a,b\"c") ] "c_total" in
  M.inc c 1;
  let s = M.series t ~columns:[ "x" ] "win" in
  M.sample s ~ts:7 [ 1.5 ];
  let snap = M.snapshot t in
  let csv = M.render M.Csv snap in
  (match String.split_on_char '\n' csv with
  | header :: _ ->
      Alcotest.(check string) "csv header" "track,name,labels,kind,field,ts,value"
        header
  | [] -> Alcotest.fail "empty csv");
  Alcotest.(check bool) "csv quotes label field" true
    (Helpers.contains csv "\"k=a,b\"\"c\"");
  Alcotest.(check bool) "csv series row" true
    (Helpers.contains csv "win,,series,x,7,1.5");
  let json = Trace.Json.to_string (M.to_json snap) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (Helpers.contains json needle))
    [ "\"version\":1"; "\"cycles\":"; "\"sched\":"; "\"wall\":" ];
  (match M.format_of_string "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad format accepted");
  List.iter
    (fun (s, want) ->
      match M.format_of_string s with
      | Ok f -> Alcotest.(check bool) s true (f = want)
      | Error e -> Alcotest.fail e)
    [ ("prom", M.Prom); ("json", M.Json); ("csv", M.Csv) ]

(* Json.float_repr must round-trip: shortest of %.12g/%.15g/%.17g that
   parses back to the same float. %.6g (the old rendering) loses
   precision on e.g. 0.1 +. 0.2. *)
let prop_float_repr_round_trips =
  Helpers.qtest ~count:500 "float_repr round-trips"
    QCheck.(float)
    (fun f ->
      (not (Float.is_finite f))
      || float_of_string (Trace.Json.float_repr f) = f)

let test_float_repr_cases () =
  List.iter
    (fun f ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%h round-trips" f)
        f
        (float_of_string (Trace.Json.float_repr f)))
    [ 0.1; 0.1 +. 0.2; 1.0 /. 3.0; 1e-7; 1.000000119; 6.02214076e23;
      Float.max_float; Float.min_float; -0.0; 4.9e-324 ];
  Alcotest.(check string) "integers render bare" "42"
    (Trace.Json.float_repr 42.0);
  Alcotest.(check string) "non-finite is null" "null"
    (Trace.Json.float_repr Float.nan)

(* Percentiles against the naive definition: sort, then take the value
   at the smallest 1-based rank k with 100*k >= p*n. *)
let naive_percentile p l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  let rec go k = if 100 * k >= p * n then a.(k - 1) else go (k + 1) in
  go 1

let prop_percentiles_match_naive =
  Helpers.qtest ~count:300 "percentiles match the naive rank definition"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 150) (int_range 0 1000))
    (fun l ->
      let sorted = List.sort compare l in
      let p = Serve.percentiles_of l in
      p.Serve.p50 = naive_percentile 50 l
      && p.Serve.p95 = naive_percentile 95 l
      && p.Serve.p99 = naive_percentile 99 l
      && p.Serve.p_min = List.hd sorted
      && p.Serve.p_max = List.hd (List.rev sorted))

let test_percentile_edges () =
  let check name l =
    let p = Serve.percentiles_of l in
    List.iter
      (fun (pc, got) ->
        Alcotest.(check int)
          (Printf.sprintf "%s p%d" name pc)
          (naive_percentile pc l) got)
      [ (50, p.Serve.p50); (95, p.Serve.p95); (99, p.Serve.p99) ]
  in
  check "singleton" [ 17 ];
  check "two" [ 9; 3 ];
  check "all ties" (List.init 50 (fun _ -> 7));
  check "n=99" (List.init 99 (fun i -> i * 3));
  check "n=100" (List.init 100 (fun i -> 100 - i));
  check "n=101" (List.init 101 (fun i -> i));
  (* the documented closed forms at n=100 *)
  let p = Serve.percentiles_of (List.init 100 (fun i -> i + 1)) in
  Alcotest.(check int) "n=100 p50 = 50th value" 50 p.Serve.p50;
  Alcotest.(check int) "n=100 p99 = 99th value" 99 p.Serve.p99

(* ---- serve integration: SLO accounting and the determinism contract. *)

let serve ?metrics ?trace cfg =
  let artifact, g = Lazy.force Test_serve.fixture in
  Serve.run ?metrics ?trace cfg artifact ~graph:g

let base = { Serve.default with Serve.requests = 12; max_batch = 3 }

let test_slo_accounting () =
  let r = serve { base with Serve.slo_sojourn = Some 1 } in
  (match r.Serve.r_slo with
  | None -> Alcotest.fail "slo_sojourn set but no slo block"
  | Some s ->
      Alcotest.(check int) "impossible target: every served violates"
        r.Serve.r_served s.Serve.s_pred_violations;
      Alcotest.(check bool) "observed >= predicted" true
        (s.Serve.s_observed_violations >= s.Serve.s_pred_violations);
      Alcotest.(check (float 1e-9)) "rate = pred / served" 1.0
        s.Serve.s_pred_violation_rate);
  let loose = serve { base with Serve.slo_sojourn = Some max_int } in
  (match loose.Serve.r_slo with
  | Some s ->
      Alcotest.(check int) "loose target: none" 0 s.Serve.s_pred_violations;
      Alcotest.(check int) "loose observed: none" 0 s.Serve.s_observed_violations
  | None -> Alcotest.fail "no slo block");
  Alcotest.(check bool) "no slo, no block" true
    ((serve base).Serve.r_slo = None);
  (match serve { base with Serve.slo_sojourn = Some 0 } with
  | _ -> Alcotest.fail "slo_sojourn 0 accepted"
  | exception Invalid_argument _ -> ());
  let tally = Serve.tally (serve { base with Serve.slo_sojourn = Some 1 }) in
  Alcotest.(check bool) "tally carries the slo line" true
    (Helpers.contains tally "slo target=1 pred-violations=");
  let json =
    Trace.Json.to_string (Serve.to_json (serve { base with Serve.slo_sojourn = Some 1 }))
  in
  Alcotest.(check bool) "json carries slo" true (Helpers.contains json "\"slo\":");
  Alcotest.(check bool) "json carries metrics" true
    (Helpers.contains json "\"metrics\":")

(* Predicted sojourn is a worker-invariant lower bound on the observed
   one: batch assembly precedes routing, and no queueing model can beat
   a queueing-free fleet. *)
let test_pred_sojourn_lower_bound () =
  let r =
    serve
      { base with
        Serve.workers = 1;
        arrival = Serve.Poisson { mean_gap = 0 };
        queue_depth = 4 }
  in
  List.iter
    (fun (req, o) ->
      match o with
      | Serve.Served { o_finish; o_pred_sojourn; _ } ->
          Alcotest.(check bool) "pred <= observed" true
            (o_pred_sojourn <= o_finish - req.Serve.r_arrival)
      | _ -> ())
    r.Serve.r_outcomes

(* The acceptance criterion, in-process: the cycles section of the
   Prometheus dump is byte-identical across fleet shapes and host
   parallelism, SLO accounting included. *)
let test_cycles_track_worker_invariant () =
  let dump workers jobs =
    let cfg =
      { base with
        Serve.workers;
        jobs;
        arrival = Serve.Poisson { mean_gap = 0 };
        queue_depth = 4;
        slo_sojourn = Some 2_000_000 }
    in
    Helpers.cycles_section (M.to_prometheus (serve cfg).Serve.r_metrics)
  in
  let reference = dump 1 1 in
  Alcotest.(check bool) "cycles section is non-trivial" true
    (Helpers.contains reference "htvm_serve_requests_total 12"
    && Helpers.contains reference "htvm_serve_window_arrivals"
    && Helpers.contains reference "htvm_sim_accel_compute_total");
  List.iter
    (fun (w, j) ->
      Alcotest.(check string)
        (Printf.sprintf "workers %d jobs %d" w j)
        reference (dump w j))
    [ (1, 4); (2, 1); (4, 4) ]

(* --trace in Poisson mode also emits the ingress occupancy as a
   queue-depth counter track. *)
let test_queue_depth_trace () =
  let trace = Trace.create () in
  let _ =
    serve ~trace
      { base with
        Serve.arrival = Serve.Poisson { mean_gap = 0 };
        queue_depth = 2 }
  in
  let depths =
    List.filter
      (fun e -> e.Trace.ev_name = "queue_depth" && e.Trace.ev_kind = Trace.Counter)
      (Trace.events trace)
  in
  Alcotest.(check bool) "queue_depth samples present" true (depths <> []);
  List.iter
    (fun e ->
      Alcotest.(check string) "on the queue track" "queue" e.Trace.ev_track;
      Alcotest.(check bool) "bounded by queue_depth" true
        (e.Trace.ev_dur = 0 && e.Trace.ev_ts >= 0))
    depths

(* Compile-side telemetry: solver totals land on the cycles track and
   agree with the artifact's own stats; phase timings are wall-track
   gauges, one per phase. *)
let test_compile_metrics () =
  let _, g = Lazy.force Test_serve.fixture in
  let reg = M.create () in
  let a =
    Result.get_ok
      (Htvm.Compile.compile ~metrics:reg
         (Htvm.Compile.default_config Arch.Diana.digital_only)
         g)
  in
  let snap = M.snapshot reg in
  Alcotest.(check int) "explored counter = solver stats"
    a.Htvm.Compile.solver.Htvm.Compile.ss_explored
    (counter_value (find "htvm_compile_solver_explored_total" snap));
  let phases =
    List.filter
      (fun m ->
        m.M.m_name = "htvm_wall_compile_phase_seconds" && m.M.m_track = M.Wall)
      snap
  in
  Alcotest.(check int) "eight phase gauges" 8 (List.length phases)

(* Attaching a registry must not make a compile measurably slower:
   recording is a few integer stores per phase. The bar (median of three
   compiles of resnet8 mixed on both, with a registry at most 2x bare +
   10 ms) is lenient on purpose: it catches an accidentally quadratic
   recording path, not host noise. *)
let test_registry_overhead () =
  let g = (Models.Zoo.find "resnet8").Models.Zoo.build Models.Policy.Mixed in
  let cfg = Htvm.Compile.default_config Arch.Diana.platform in
  let median_s with_registry =
    let times =
      List.init 3 (fun _ ->
          let t0 = Unix.gettimeofday () in
          let metrics = if with_registry then Some (M.create ()) else None in
          ignore (Result.get_ok (Htvm.Compile.compile ?metrics cfg g));
          Unix.gettimeofday () -. t0)
    in
    List.nth (List.sort compare times) 1
  in
  ignore (median_s false) (* warm-up *);
  let bare = median_s false in
  let with_registry = median_s true in
  if with_registry > (bare *. 2.0) +. 0.01 then
    Alcotest.failf "compile %.4f s with a registry, %.4f s bare" with_registry
      bare

let suites =
  [ ( "metrics",
      [ Alcotest.test_case "registry basics" `Quick test_registry_basics;
        Alcotest.test_case "strict registration" `Quick test_strict_registration;
        Alcotest.test_case "histogram bucket boundaries" `Quick
          test_histogram_bucket_boundaries;
        Alcotest.test_case "prometheus rendering" `Quick
          test_prometheus_rendering;
        Alcotest.test_case "csv and json rendering" `Quick test_csv_and_json;
        Alcotest.test_case "float_repr cases" `Quick test_float_repr_cases;
        prop_float_repr_round_trips;
      ] );
    ( "metrics:percentiles",
      [ prop_percentiles_match_naive;
        Alcotest.test_case "edge sizes vs naive" `Quick test_percentile_edges;
      ] );
    ( "metrics:serve",
      [ Alcotest.test_case "slo accounting" `Quick test_slo_accounting;
        Alcotest.test_case "predicted sojourn lower-bounds observed" `Quick
          test_pred_sojourn_lower_bound;
        Alcotest.test_case "cycles track worker-invariant" `Quick
          test_cycles_track_worker_invariant;
        Alcotest.test_case "queue-depth trace track" `Quick
          test_queue_depth_trace;
        Alcotest.test_case "compile metrics" `Quick test_compile_metrics;
        Alcotest.test_case "registry overhead bounded" `Slow
          test_registry_overhead;
      ] );
  ]
