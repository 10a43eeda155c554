(* The multi-tenant serving layer: tally/metrics determinism across
   fleet shapes for every arrival source, per-class SLO shedding and
   accounting, pinned vs hot-swap placement, batch-size autotuning, the
   replayable arrival-trace format, and the typed error surface. *)

module B = Ir.Graph.Builder
module Dtype = Tensor.Dtype

(* Two small digital models of different costs, compiled once: "alpha"
   is the test_serve conv fixture, "beta" a cheaper single-channel
   variant — cheap enough for sweeps, distinct enough that routing the
   wrong artifact would change every digest. *)
let fixture =
  lazy
    (let compile g =
       Result.get_ok
         (Htvm.Compile.compile
            (Htvm.Compile.default_config Arch.Diana.digital_only)
            g)
     in
     let conv_model ~seed ~channels =
       let b = B.create () in
       let rng = Util.Rng.create seed in
       let x = B.input b ~name:"x" Dtype.I8 [| 4; 8; 8 |] in
       let w = B.const b (Tensor.random rng Dtype.I8 [| channels; 4; 3; 3 |]) in
       let conv = B.conv2d b ~padding:(1, 1) x ~weights:w in
       let q = B.requantize b ~relu:true ~shift:9 ~out_dtype:Dtype.I8 conv in
       B.finish b ~output:q
     in
     let ga = conv_model ~seed:8 ~channels:8 in
     let gb = conv_model ~seed:9 ~channels:2 in
     [
       { Serve.m_name = "alpha"; m_artifact = compile ga; m_graph = ga };
       { Serve.m_name = "beta"; m_artifact = compile gb; m_graph = gb };
     ])

(* An arrival trace read back the way [htvmc serve --replay] reads it:
   from a file. *)
let parse_arrival_trace text =
  let path = Filename.temp_file "htvm-arrivals" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      Serve.load_arrival_trace path)

let classes =
  [
    { Serve.k_name = "interactive"; k_model = "alpha"; k_slo = None; k_weight = 2 };
    { Serve.k_name = "batch"; k_model = "beta"; k_slo = None; k_weight = 1 };
  ]

let base =
  {
    Serve.mt_default with
    Serve.mt_requests = 12;
    mt_max_batch = 3;
    mt_workers = 2;
  }

let run ?(models = Lazy.force fixture) ?(classes = classes) cfg =
  Serve.mt_run cfg ~models ~classes

let run_ok ?models ?classes cfg =
  match run ?models ?classes cfg with
  | Ok r -> r
  | Error e -> Alcotest.failf "mt_run failed: %s" (Serve.mt_error_to_string e)

let expect_error name pred = function
  | Ok _ -> Alcotest.failf "%s: expected an error" name
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: got %s" name (Serve.mt_error_to_string e))
        true (pred e)

(* The tally body with the config header stripped: record-vs-replay
   comparisons legitimately differ in the arrival descriptor line. *)
let tally_body r =
  let t = Serve.mt_tally r in
  match String.index_opt t '\n' with
  | Some i -> (
      match String.index_from_opt t (i + 1) '\n' with
      | Some j -> String.sub t (j + 1) (String.length t - j - 1)
      | None -> t)
  | None -> t

let cycles_track r =
  Helpers.cycles_section (Metrics.to_prometheus r.Serve.mt_metrics)

(* The headline invariant, per arrival source: tally and cycles-track
   metrics are byte-identical at any fleet size / host parallelism. *)
let test_tally_invariant () =
  let modes =
    [
      ("closed", Serve.Mt_closed);
      ("poisson", Serve.Mt_poisson { mean_gap = 0 });
      ("diurnal", Serve.Mt_diurnal { mean_gap = 0; period = 0 });
      ("bursty", Serve.Mt_bursty { mean_gap = 0; burst = 3 });
    ]
  in
  List.iter
    (fun (name, mt_arrival) ->
      let at w j =
        run_ok { base with Serve.mt_arrival; mt_workers = w; mt_jobs = j }
      in
      let reference = at 1 1 in
      let ref_tally = Serve.mt_tally reference in
      let ref_cycles = cycles_track reference in
      List.iter
        (fun (w, j) ->
          let r = at w j in
          Alcotest.(check string)
            (Printf.sprintf "%s: tally at workers %d jobs %d" name w j)
            ref_tally (Serve.mt_tally r);
          Alcotest.(check string)
            (Printf.sprintf "%s: cycles track at workers %d jobs %d" name w j)
            ref_cycles (cycles_track r))
        [ (2, 1); (4, 1); (4, 4); (7, 2) ])
    modes

(* Per-class accounting: class stats partition the request stream, books
   balance per class and in total, and every class sees traffic under
   its configured weight. *)
let test_class_books () =
  let r =
    run_ok
      { base with Serve.mt_requests = 30; mt_arrival = Serve.Mt_poisson { mean_gap = 0 } }
  in
  let total f = List.fold_left (fun acc cs -> acc + f cs) 0 r.Serve.mt_class_stats in
  Alcotest.(check int) "class requests partition the stream" 30
    (total (fun cs -> cs.Serve.cs_requests));
  Alcotest.(check int) "served totals agree" r.Serve.mt_served
    (total (fun cs -> cs.Serve.cs_served));
  Alcotest.(check int) "shed-queue totals agree" r.Serve.mt_shed_queue
    (total (fun cs -> cs.Serve.cs_shed_queue));
  Alcotest.(check int) "shed-slo totals agree" r.Serve.mt_shed_slo
    (total (fun cs -> cs.Serve.cs_shed_slo));
  List.iter
    (fun cs ->
      Alcotest.(check int)
        (Printf.sprintf "class %s books balance" cs.Serve.cs_name)
        cs.Serve.cs_requests
        (cs.Serve.cs_served + cs.Serve.cs_shed_queue + cs.Serve.cs_shed_slo);
      Alcotest.(check bool)
        (Printf.sprintf "class %s sees traffic" cs.Serve.cs_name)
        true
        (cs.Serve.cs_requests > 0))
    r.Serve.mt_class_stats;
  Alcotest.(check int) "books balance overall" 30
    (r.Serve.mt_served + r.Serve.mt_shed_queue + r.Serve.mt_shed_slo)

(* SLO shedding: an unmeetable target sheds a class entirely (the shed
   decision quotes the predicted sojourn that broke it), a generous one
   sheds nothing, and every served request of an SLO class fits its
   target by construction. *)
let test_slo_shedding () =
  let with_slo slo =
    let classes =
      [
        { Serve.k_name = "tight"; k_model = "alpha"; k_slo = slo; k_weight = 1 };
        { Serve.k_name = "lax"; k_model = "beta"; k_slo = None; k_weight = 1 };
      ]
    in
    run_ok ~classes base
  in
  let r = with_slo (Some 1) in
  let stat name r =
    List.find (fun cs -> cs.Serve.cs_name = name) r.Serve.mt_class_stats
  in
  Alcotest.(check int) "slo 1 sheds the whole class"
    (stat "tight" r).Serve.cs_requests (stat "tight" r).Serve.cs_shed_slo;
  Alcotest.(check int) "the no-slo class is untouched" 0
    (stat "lax" r).Serve.cs_shed_slo;
  Alcotest.(check int) "lax class fully served"
    (stat "lax" r).Serve.cs_requests (stat "lax" r).Serve.cs_served;
  List.iter
    (fun (q, o) ->
      match o with
      | Serve.Mt_shed_slo { mo_pred_sojourn } ->
          Alcotest.(check bool) "shed quotes a violating prediction" true
            (mo_pred_sojourn > 1 && q.Serve.q_class = 0)
      | _ -> ())
    r.Serve.mt_outcomes;
  let generous = with_slo (Some 1_000_000_000) in
  Alcotest.(check int) "a generous slo sheds nothing" 0 generous.Serve.mt_shed_slo;
  List.iter
    (fun (_, o) ->
      match o with
      | Serve.Mt_served { mo_pred_sojourn; _ } ->
          Alcotest.(check bool) "served predictions fit the target" true
            (mo_pred_sojourn <= 1_000_000_000)
      | _ -> ())
    generous.Serve.mt_outcomes

(* Placement: pinned instances never swap and end the run hosting their
   assigned model; hot-swap on one instance pays the reload exactly at
   model changes, so the makespan moves by swaps * overhead. *)
let test_placement_and_swaps () =
  let pinned =
    run_ok { base with Serve.mt_placement = Serve.Pinned; mt_workers = 2 }
  in
  Alcotest.(check int) "pinned fleet never swaps" 0 pinned.Serve.mt_swaps;
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "instance %d hosts its pinned model" i.Serve.mi_id)
        true
        (i.Serve.mi_model = Some (if i.Serve.mi_id mod 2 = 0 then "alpha" else "beta")))
    pinned.Serve.mt_instances;
  let swap overhead =
    run_ok
      {
        base with
        Serve.mt_placement = Serve.Swap;
        mt_workers = 1;
        mt_max_batch = 1;
        mt_swap_overhead = overhead;
      }
  in
  let r0 = swap 0 and r9 = swap 9_000 in
  Alcotest.(check bool) "alternating classes force swaps" true
    (r9.Serve.mt_swaps > 0);
  Alcotest.(check int) "swap count is overhead-independent" r0.Serve.mt_swaps
    r9.Serve.mt_swaps;
  Alcotest.(check int) "makespan moves by swaps * overhead"
    (r0.Serve.mt_makespan + (r9.Serve.mt_swaps * 9_000))
    r9.Serve.mt_makespan;
  expect_error "pinned needs enough workers"
    (function Serve.Bad_config _ -> true | _ -> false)
    (run { base with Serve.mt_placement = Serve.Pinned; mt_workers = 1 })

(* Record -> parse -> replay reproduces the tally body (per-request
   outcomes, shed set, class stats) byte-for-byte, at any fleet shape. *)
let test_trace_roundtrip () =
  let original =
    run_ok
      {
        base with
        Serve.mt_arrival = Serve.Mt_poisson { mean_gap = 0 };
        mt_queue_depth = 2;
      }
  in
  let text = Serve.render_arrival_trace original in
  let entries =
    match parse_arrival_trace text with
    | Ok es -> es
    | Error e -> Alcotest.failf "parse failed: %s" (Serve.mt_error_to_string e)
  in
  Alcotest.(check int) "every request round-trips" 12 (List.length entries);
  List.iter
    (fun (w, j) ->
      let replayed =
        run_ok
          {
            base with
            Serve.mt_arrival = Serve.Mt_replay entries;
            mt_queue_depth = 2;
            mt_seed = 999;
            mt_requests = 0;
            mt_workers = w;
            mt_jobs = j;
          }
      in
      Alcotest.(check string)
        (Printf.sprintf "replay tally body at workers %d jobs %d" w j)
        (tally_body original) (tally_body replayed);
      (* the shed set (which requests, why, at what predicted cost) is
         fleet-invariant; served outcomes keep only their invariant
         fields here — instance/batch/start legitimately move. *)
      let invariant r =
        List.map
          (fun (q, o) ->
            ( q.Serve.q_id,
              match o with
              | Serve.Mt_served { mo_digest; mo_service; mo_pred_sojourn; _ } ->
                  Printf.sprintf "served %s %d %d" mo_digest mo_service
                    mo_pred_sojourn
              | Serve.Mt_shed_queue { mo_window } ->
                  Printf.sprintf "shed-queue %d" mo_window
              | Serve.Mt_shed_slo { mo_pred_sojourn } ->
                  Printf.sprintf "shed-slo %d" mo_pred_sojourn ))
          r.Serve.mt_outcomes
      in
      Alcotest.(check bool) "replay reproduces the shed set" true
        (invariant replayed = invariant original))
    [ (1, 1); (4, 4) ];
  Alcotest.(check bool) "second render is stable" true
    (Serve.render_arrival_trace
       (run_ok
          {
            base with
            Serve.mt_arrival = Serve.Mt_replay entries;
            mt_queue_depth = 2;
          })
    = text)

(* The checked-in golden trace parses (comments, blank lines and all)
   and serves cleanly under the class names it references. *)
let test_golden_trace () =
  let entries =
    match Serve.load_arrival_trace "golden/mtserve.trace" with
    | Ok es -> es
    | Error e -> Alcotest.failf "golden trace: %s" (Serve.mt_error_to_string e)
  in
  Alcotest.(check int) "golden trace entries" 8 (List.length entries);
  let r = run_ok { base with Serve.mt_arrival = Serve.Mt_replay entries } in
  Alcotest.(check int) "every golden request accounted" 8
    (List.length r.Serve.mt_outcomes);
  Alcotest.(check bool) "golden trace serves" true (r.Serve.mt_served > 0)

(* Malformed traces are rejected with a typed [Bad_trace] naming the
   offending line; traces referencing unconfigured classes are typed
   [Unknown_class] at run time. *)
let test_trace_malformed () =
  let expect_bad name text want_line =
    match parse_arrival_trace text with
    | Ok _ -> Alcotest.failf "%s: parsed" name
    | Error (Serve.Bad_trace { line; _ }) ->
        Alcotest.(check int) (name ^ ": line") want_line line
    | Error e ->
        Alcotest.failf "%s: wrong error %s" name (Serve.mt_error_to_string e)
  in
  expect_bad "wrong header" "htvm-serve-trace v9\n1 a 2\n" 1;
  expect_bad "token count" "htvm-serve-trace v1\n1 a\n" 2;
  expect_bad "bad cycle" "htvm-serve-trace v1\nx a 2\n" 2;
  expect_bad "bad seed" "htvm-serve-trace v1\n1 a x\n" 2;
  expect_bad "negative cycle" "htvm-serve-trace v1\n-1 a 2\n" 2;
  expect_bad "decreasing cycles"
    "htvm-serve-trace v1\n# ok\n9 a 2\n3 a 2\n" 4;
  let ghost =
    Result.get_ok
      (parse_arrival_trace "htvm-serve-trace v1\n1 ghost 2\n")
  in
  expect_error "unknown class in trace"
    (function
      | Serve.Unknown_class { class_name = "ghost"; _ } -> true | _ -> false)
    (run { base with Serve.mt_arrival = Serve.Mt_replay ghost })

(* Batch autotune: [mt_max_batch = 0] resolves to a candidate size, the
   choice is fleet-shape-invariant, and a dispatch overhead dwarfing
   the per-request service pushes it above singleton batches. *)
let test_autotune () =
  let cfg w j =
    {
      base with
      Serve.mt_max_batch = 0;
      mt_workers = w;
      mt_jobs = j;
      mt_dispatch_overhead = 10_000_000;
    }
  in
  let r1 = run_ok (cfg 1 1) in
  Alcotest.(check bool) "resolved from the candidate set" true
    (List.mem r1.Serve.mt_batch [ 1; 2; 4; 8; 16; 32 ]);
  Alcotest.(check bool) "heavy dispatch overhead favors batching" true
    (r1.Serve.mt_batch > 1);
  let r4 = run_ok (cfg 4 4) in
  Alcotest.(check int) "choice is fleet-invariant" r1.Serve.mt_batch
    r4.Serve.mt_batch;
  Alcotest.(check string) "and so is the tally" (Serve.mt_tally r1)
    (Serve.mt_tally r4)

(* An empty request stream is a clean no-op at every layer. *)
let test_requests_zero () =
  List.iter
    (fun mt_arrival ->
      let r = run_ok { base with Serve.mt_requests = 0; mt_arrival } in
      Alcotest.(check int) "no outcomes" 0 (List.length r.Serve.mt_outcomes);
      Alcotest.(check int) "zero makespan" 0 r.Serve.mt_makespan;
      Alcotest.(check int) "empty percentiles" 0 r.Serve.mt_service.Serve.p_count;
      Alcotest.(check bool) "summary still renders" true
        (String.length (Serve.mt_summary r) > 0);
      ignore (Serve.mt_tally r);
      ignore (Trace.Json.to_string (Serve.mt_to_json r)))
    [ Serve.Mt_closed; Serve.Mt_poisson { mean_gap = 0 } ]

(* Every misconfiguration surfaces as a typed error, never an
   exception. *)
let test_typed_errors () =
  let bad_config name cfg_classes =
    let cfg, classes = cfg_classes in
    expect_error name
      (function Serve.Bad_config _ -> true | _ -> false)
      (run ~classes cfg)
  in
  expect_error "unknown model"
    (function
      | Serve.Unknown_model { class_name = "a"; model = "nope" } -> true
      | _ -> false)
    (run
       ~classes:
         [ { Serve.k_name = "a"; k_model = "nope"; k_slo = None; k_weight = 1 } ]
       base);
  bad_config "workers 0" ({ base with Serve.mt_workers = 0 }, classes);
  bad_config "queue_depth 0" ({ base with Serve.mt_queue_depth = 0 }, classes);
  bad_config "requests -1" ({ base with Serve.mt_requests = -1 }, classes);
  bad_config "negative batch" ({ base with Serve.mt_max_batch = -1 }, classes);
  bad_config "negative swap overhead"
    ({ base with Serve.mt_swap_overhead = -1 }, classes);
  bad_config "no classes" (base, []);
  bad_config "zero weight"
    ( base,
      [ { Serve.k_name = "a"; k_model = "alpha"; k_slo = None; k_weight = 0 } ] );
  bad_config "zero slo"
    ( base,
      [ { Serve.k_name = "a"; k_model = "alpha"; k_slo = Some 0; k_weight = 1 } ]
    );
  bad_config "class name with space"
    ( base,
      [ { Serve.k_name = "a b"; k_model = "alpha"; k_slo = None; k_weight = 1 } ]
    );
  bad_config "duplicate class names"
    ( base,
      [
        { Serve.k_name = "a"; k_model = "alpha"; k_slo = None; k_weight = 1 };
        { Serve.k_name = "a"; k_model = "beta"; k_slo = None; k_weight = 1 };
      ] );
  bad_config "bad burst"
    ({ base with Serve.mt_arrival = Serve.Mt_bursty { mean_gap = 0; burst = 0 } },
     classes);
  let dup = Lazy.force fixture in
  expect_error "duplicate model names"
    (function Serve.Bad_config _ -> true | _ -> false)
    (run ~models:(dup @ dup) base)

(* The renderers agree with the outcome list: one tally line per
   request, per-class sections, and JSON that mentions every class. *)
let test_renderings () =
  let r = run_ok base in
  let tally = Serve.mt_tally r in
  let lines = String.split_on_char '\n' (String.trim tally) in
  (* header + config + 2 class headers + 12 requests + totals
     + 2 * (class stats + class percentiles) + service percentiles *)
  Alcotest.(check int) "tally line count" (2 + 2 + 12 + 1 + 4 + 1)
    (List.length lines);
  Alcotest.(check bool) "tally starts with the format tag" true
    (Helpers.contains (List.hd lines) "htvm-mtserve-tally v1");
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "tally mentions class %s" k.Serve.k_name)
        true
        (Helpers.contains tally ("class " ^ k.Serve.k_name)))
    classes;
  let json = Trace.Json.to_string (Serve.mt_to_json r) in
  Alcotest.(check bool) "json lists classes" true
    (Helpers.contains json "\"classes\":");
  Alcotest.(check bool) "json lists outcomes" true
    (Helpers.contains json "\"outcomes\":");
  Alcotest.(check bool) "summary mentions placement" true
    (Helpers.contains (Serve.mt_summary r) "placement")

(* Generator-driven determinism: random multi-tenant configs (fleet
   shape, arrival mode, placement, SLOs, autotune on/off) all produce
   tally + cycles-track metrics identical to the 1-worker/1-job run. *)
let prop_invariance =
  let gen =
    QCheck.Gen.(
      let* workers = int_range 1 4 in
      let* jobs = oneofl [ 1; 4 ] in
      let* mode = int_range 0 3 in
      let* burst = int_range 1 4 in
      let* placement = oneofl [ Serve.Pinned; Serve.Swap ] in
      let* max_batch = oneofl [ 0; 1; 2; 4 ] in
      let* queue_depth = int_range 1 4 in
      let* requests = int_range 0 10 in
      let* slo = oneofl [ None; Some 1_000_000; Some 100_000_000 ] in
      let* seed = int_range 0 10_000 in
      return
        (workers, jobs, mode, burst, placement, max_batch, queue_depth,
         requests, slo, seed))
  in
  let print (w, j, m, b, p, mb, qd, n, slo, seed) =
    Printf.sprintf
      "workers=%d jobs=%d mode=%d burst=%d placement=%s batch=%d depth=%d \
       requests=%d slo=%s seed=%d"
      w j m b
      (match p with Serve.Pinned -> "pinned" | Serve.Swap -> "swap")
      mb qd n
      (match slo with None -> "none" | Some t -> string_of_int t)
      seed
  in
  Helpers.qtest ~count:8 "mt tally/metrics invariant over fleet shape"
    (QCheck.make ~print gen)
    (fun (workers, jobs, mode, burst, placement, max_batch, queue_depth,
          requests, slo, seed) ->
      let arrival =
        match mode with
        | 0 -> Serve.Mt_closed
        | 1 -> Serve.Mt_poisson { mean_gap = 0 }
        | 2 -> Serve.Mt_diurnal { mean_gap = 0; period = 0 }
        | _ -> Serve.Mt_bursty { mean_gap = 0; burst }
      in
      let classes =
        [
          { Serve.k_name = "interactive"; k_model = "alpha"; k_slo = slo;
            k_weight = 2 };
          { Serve.k_name = "batch"; k_model = "beta"; k_slo = None;
            k_weight = 1 };
        ]
      in
      let at w j =
        run_ok ~classes
          {
            Serve.mt_default with
            Serve.mt_workers = w;
            mt_jobs = j;
            mt_arrival = arrival;
            mt_placement = placement;
            mt_max_batch = max_batch;
            mt_queue_depth = queue_depth;
            mt_requests = requests;
            mt_seed = seed;
          }
      in
      let reference = at (max workers 2) 1 in
      let other = at (max workers 2) jobs in
      (* vary only jobs at the drawn fleet size, then the fleet size at
         the reference job count: both must leave the books alone.
         (Pinned placement needs >= 2 workers for the two models.) *)
      let again = at 2 1 in
      Serve.mt_tally reference = Serve.mt_tally other
      && cycles_track reference = cycles_track other
      && Serve.mt_tally reference = Serve.mt_tally again
      && cycles_track reference = cycles_track again)

(* Open loop, the observed plane keeps time order: on each instance,
   batch starts never decrease as the window index grows, no request
   starts before its window closes, and one worker serves FIFO across
   windows (within one, batches group requests per model). *)
let prop_observed_time_order =
  let gen =
    QCheck.Gen.(
      let* workers = int_range 1 4 in
      let* mode = int_range 1 3 in
      let* placement = oneofl [ Serve.Pinned; Serve.Swap ] in
      let* max_batch = oneofl [ 0; 1; 2; 4 ] in
      let* queue_depth = int_range 1 6 in
      let* requests = int_range 2 24 in
      let* seed = int_range 0 10_000 in
      return (workers, mode, placement, max_batch, queue_depth, requests, seed))
  in
  let print (w, m, p, b, qd, n, seed) =
    Printf.sprintf "workers=%d mode=%d placement=%s batch=%d depth=%d requests=%d seed=%d"
      w m
      (match p with Serve.Pinned -> "pinned" | Serve.Swap -> "swap")
      b qd n seed
  in
  Helpers.qtest ~count:20 "mt observed plane keeps time order"
    (QCheck.make ~print gen)
    (fun (workers, mode, placement, max_batch, queue_depth, requests, seed) ->
      let served workers placement =
        let r =
          run_ok
            {
              base with
              Serve.mt_workers = workers;
              mt_arrival =
                (match mode with
                | 1 -> Serve.Mt_poisson { mean_gap = 0 }
                | 2 -> Serve.Mt_diurnal { mean_gap = 0; period = 0 }
                | _ -> Serve.Mt_bursty { mean_gap = 0; burst = 3 });
              mt_placement = placement;
              mt_max_batch = max_batch;
              mt_queue_depth = queue_depth;
              mt_requests = requests;
              mt_seed = seed;
            }
        in
        let window = r.Serve.mt_resolved_window in
        ( window,
          List.filter_map
            (fun ((q : Serve.mt_request), o) ->
              match o with
              | Serve.Mt_served { mo_instance; mo_batch; mo_start; _ } ->
                  Some (mo_instance, mo_batch, q.Serve.q_arrival / window, mo_start)
              | Serve.Mt_shed_queue _ | Serve.Mt_shed_slo _ -> None)
            r.Serve.mt_outcomes )
      in
      (* Pinned placement needs a worker per model. *)
      let workers = if placement = Serve.Pinned then max workers 2 else workers in
      let window, fleet = served workers placement in
      let _, single = served 1 Serve.Swap in
      Helpers.served_in_time_order ~window fleet
      && Helpers.monotone_starts (List.map (fun (_, _, w, s) -> (0, w, s)) single))

(* The shared semantics of the two front ends: [Serve.run] and a
   one-model, one-class, [Pinned] [mt_run] replaying [run]'s own arrivals
   (same seed, same resolved window) agree request for request —
   instance, batch, start, finish, predicted sojourn, digest, service
   and shed window — and on makespan and fail-open count.

   Open loop only (closed-loop arrivals cannot be replayed; the goldens
   cover them), with no faults, memoization or SLO. Health on together
   with a degraded instance is excluded by design: only [run] has the
   predicted plane and its health-aware shedding, so the two legitimately
   diverge there. *)
let prop_run_matches_single_class_mt_run =
  let gen =
    QCheck.Gen.(
      let* workers = int_range 1 5 in
      let* max_batch = int_range 1 6 in
      let* queue_depth = int_range 1 8 in
      let* requests = int_range 0 30 in
      let* overhead = int_range 0 3000 in
      let* mean_gap = oneof [ return 0; int_range 500 5000 ] in
      let* window = oneof [ return 0; int_range 1000 8000 ] in
      let* health = bool in
      let* mask = int_bound ((1 lsl workers) - 1) in
      let* seed = int_range 0 10_000 in
      let degraded =
        if health then []
        else List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init workers Fun.id)
      in
      return
        (workers, max_batch, queue_depth, requests, overhead, mean_gap, window,
         health, degraded, seed))
  in
  let print (w, b, qd, n, o, gap, win, h, deg, seed) =
    Printf.sprintf
      "workers=%d batch=%d depth=%d requests=%d overhead=%d gap=%d window=%d \
       health=%b degraded=[%s] seed=%d"
      w b qd n o gap win h
      (String.concat ";" (List.map string_of_int deg))
      seed
  in
  Helpers.qtest ~count:350 "run = one-class pinned mt_run on replayed arrivals"
    (QCheck.make ~print gen)
    (fun (workers, max_batch, queue_depth, requests, overhead, mean_gap, window,
          health, degraded, seed) ->
      let alpha = List.hd (Lazy.force fixture) in
      let health = if health then Some Health.default else None in
      let r =
        Serve.run
          {
            Serve.default with
            Serve.workers;
            max_batch;
            queue_depth;
            requests;
            seed;
            arrival = Serve.Poisson { mean_gap };
            window;
            dispatch_overhead = overhead;
            degraded_instances = degraded;
            health;
          }
          alpha.Serve.m_artifact ~graph:alpha.Serve.m_graph
      in
      let entries =
        List.map
          (fun ((q : Serve.request), _) ->
            {
              Serve.t_cycle = q.Serve.r_arrival;
              t_class = "main";
              t_seed = q.Serve.r_input_seed;
              t_line = q.Serve.r_id + 2;
            })
          r.Serve.r_outcomes
      in
      let m =
        run_ok ~models:[ alpha ]
          ~classes:
            [ { Serve.k_name = "main"; k_model = "alpha"; k_slo = None; k_weight = 1 } ]
          {
            Serve.mt_default with
            Serve.mt_workers = workers;
            mt_max_batch = max_batch;
            mt_queue_depth = queue_depth;
            mt_seed = seed;
            mt_arrival = Serve.Mt_replay entries;
            mt_window = r.Serve.r_window;
            mt_dispatch_overhead = overhead;
            mt_placement = Serve.Pinned;
            mt_degraded_instances = degraded;
            mt_health = health;
          }
      in
      let same (_, o) (_, mo) =
        match (o, mo) with
        | Serve.Served s, Serve.Mt_served t ->
            s.o_instance = t.mo_instance && s.o_batch = t.mo_batch
            && s.o_start = t.mo_start && s.o_finish = t.mo_finish
            && s.o_pred_sojourn = t.mo_pred_sojourn && s.o_digest = t.mo_digest
            && s.o_service = t.mo_service
        | Serve.Rejected { o_window }, Serve.Mt_shed_queue { mo_window } ->
            o_window = mo_window
        | _ -> false
      in
      List.length r.Serve.r_outcomes = List.length m.Serve.mt_outcomes
      && List.for_all2 same r.Serve.r_outcomes m.Serve.mt_outcomes
      && r.Serve.r_makespan = m.Serve.mt_makespan
      && r.Serve.r_fail_open = m.Serve.mt_fail_open)

let suites =
  [ ( "mtserve",
      [ Alcotest.test_case "tally invariant over fleet shape" `Quick
          test_tally_invariant;
        Alcotest.test_case "per-class books balance" `Quick test_class_books;
        Alcotest.test_case "slo shedding" `Quick test_slo_shedding;
        Alcotest.test_case "placement and swaps" `Quick
          test_placement_and_swaps;
        Alcotest.test_case "trace round-trip" `Quick test_trace_roundtrip;
        Alcotest.test_case "golden trace" `Quick test_golden_trace;
        Alcotest.test_case "malformed traces rejected" `Quick
          test_trace_malformed;
        Alcotest.test_case "batch autotune" `Quick test_autotune;
        Alcotest.test_case "zero requests" `Quick test_requests_zero;
        Alcotest.test_case "typed errors" `Quick test_typed_errors;
        Alcotest.test_case "renderings" `Quick test_renderings;
        prop_invariance;
        prop_observed_time_order;
        prop_run_matches_single_class_mt_run;
      ] )
  ]
