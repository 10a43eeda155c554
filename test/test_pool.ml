(* Tests for Util.Pool: order preservation, sequential equivalence,
   deterministic exception propagation, reuse across batches. *)

exception Boom of int

let test_map_preserves_order () =
  Util.Pool.with_pool ~jobs:4 (fun p ->
      let xs = List.init 100 (fun i -> i) in
      Alcotest.(check (list int))
        "parallel map = sequential map"
        (List.map (fun x -> (x * x) + 1) xs)
        (Util.Pool.map p (fun x -> (x * x) + 1) xs))

let test_jobs1_is_list_map () =
  Util.Pool.with_pool ~jobs:1 (fun p ->
      Alcotest.(check int) "jobs clamps to >= 1" 1 (Util.Pool.jobs p);
      let xs = List.init 20 (fun i -> i) in
      Alcotest.(check (list int)) "identical" (List.map succ xs)
        (Util.Pool.map p succ xs));
  (* jobs below 1 degenerates to 1 rather than failing *)
  Util.Pool.with_pool ~jobs:0 (fun p ->
      Alcotest.(check int) "0 clamps" 1 (Util.Pool.jobs p))

let test_exception_is_lowest_index () =
  Util.Pool.with_pool ~jobs:4 (fun p ->
      let completed = Atomic.make 0 in
      let raised =
        try
          ignore
            (Util.Pool.map p
               (fun i ->
                 if i = 3 || i = 7 then raise (Boom i)
                 else begin
                   Atomic.incr completed;
                   i
                 end)
               (List.init 10 (fun i -> i)));
          None
        with Boom i -> Some i
      in
      Alcotest.(check (option int)) "lowest failing index wins" (Some 3) raised;
      (* every non-failing task still ran to completion *)
      Alcotest.(check int) "all other tasks completed" 8 (Atomic.get completed))

(* The serve workload shape: one batch, several raising tasks. The
   documented contract — remaining tasks still complete, lowest-indexed
   exception wins — must hold at jobs = 1 (the sequential path used to
   abandon the tail at the first raise) exactly as at jobs = 4. *)
let test_exception_contract_jobs_1_vs_4 () =
  List.iter
    (fun jobs ->
      Util.Pool.with_pool ~jobs (fun p ->
          let completed = Atomic.make 0 in
          let raised =
            try
              ignore
                (Util.Pool.map p
                   (fun i ->
                     if i mod 3 = 1 then raise (Boom i)
                     else begin
                       Atomic.incr completed;
                       i
                     end)
                   (List.init 9 (fun i -> i)));
              None
            with Boom i -> Some i
          in
          Alcotest.(check (option int))
            (Printf.sprintf "jobs=%d: lowest failing index" jobs)
            (Some 1) raised;
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d: remaining tasks completed" jobs)
            6 (Atomic.get completed)))
    [ 1; 4 ];
  (* Single-task batches bypass the worker fan-out even on a multi-job
     pool; the contract still applies. *)
  Util.Pool.with_pool ~jobs:4 (fun p ->
      match Util.Pool.map p (fun i -> raise (Boom i)) [ 5 ] with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 5 -> ())

(* HTVM_JOBS handling: valid values parse but are capped at the
   machine's recommended domain count (an ambient default must not
   oversubscribe a smaller box), unset/empty fall back to the — uncapped
   — default, and malformed values fail loudly. *)
let with_jobs_env value f =
  let old = Sys.getenv_opt "HTVM_JOBS" in
  Unix.putenv "HTVM_JOBS" value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv "HTVM_JOBS" (Option.value old ~default:""))
    f

let test_jobs_from_env_valid () =
  let avail = Util.Pool.available () in
  with_jobs_env "3" (fun () ->
      Alcotest.(check int) "3 parses, capped at available" (min 3 avail)
        (Util.Pool.jobs_from_env ()));
  with_jobs_env " 2 " (fun () ->
      Alcotest.(check int) "padded parses, capped at available" (min 2 avail)
        (Util.Pool.jobs_from_env ()));
  with_jobs_env "1" (fun () ->
      Alcotest.(check int) "1 survives any cap" 1 (Util.Pool.jobs_from_env ()));
  with_jobs_env (string_of_int (avail * 64)) (fun () ->
      Alcotest.(check int) "oversubscription capped at available" avail
        (Util.Pool.jobs_from_env ()));
  with_jobs_env "" (fun () ->
      (* The default is the caller's own choice and is deliberately not
         capped. *)
      Alcotest.(check int) "empty = unset, default uncapped"
        ((avail * 8) + 5)
        (Util.Pool.jobs_from_env ~default:((avail * 8) + 5) ()))

let test_jobs_from_env_rejects_malformed () =
  let expect_invalid value =
    with_jobs_env value (fun () ->
        match Util.Pool.jobs_from_env () with
        | n -> Alcotest.failf "HTVM_JOBS=%S silently yielded %d" value n
        | exception Invalid_argument msg ->
            Alcotest.(check bool)
              (Printf.sprintf "HTVM_JOBS=%S message: %s" value msg)
              true
              (String.starts_with ~prefix:"HTVM_JOBS: job count must be " msg))
  in
  expect_invalid "0";
  expect_invalid "-3";
  expect_invalid "four";
  expect_invalid "2.5"

let test_reuse_across_batches () =
  Util.Pool.with_pool ~jobs:3 (fun p ->
      for round = 1 to 5 do
        let xs = List.init (10 * round) (fun i -> i) in
        Alcotest.(check (list int))
          (Printf.sprintf "round %d" round)
          (List.map (fun x -> x * round) xs)
          (Util.Pool.map p (fun x -> x * round) xs)
      done)

let test_iter_runs_everything () =
  Util.Pool.with_pool ~jobs:4 (fun p ->
      let sum = Atomic.make 0 in
      Util.Pool.iter p (fun i -> ignore (Atomic.fetch_and_add sum i))
        (List.init 101 (fun i -> i));
      Alcotest.(check int) "all tasks observed" 5050 (Atomic.get sum))

let test_shutdown_idempotent () =
  let p = Util.Pool.create ~jobs:2 in
  ignore (Util.Pool.map p succ [ 1; 2; 3 ]);
  Util.Pool.shutdown p;
  Util.Pool.shutdown p

(* The exact diagnosis of each malformed job count. *)
let test_parse_jobs () =
  List.iter
    (fun (value, want) ->
      with_jobs_env value (fun () ->
          match Util.Pool.jobs_from_env () with
          | n -> Alcotest.failf "HTVM_JOBS=%S yielded %d" value n
          | exception Invalid_argument msg -> Alcotest.(check string) value want msg))
    [
      ("0", "HTVM_JOBS: job count must be >= 1 (got 0)");
      ("-3", "HTVM_JOBS: job count must be >= 1 (got -3)");
      ("four", "HTVM_JOBS: job count must be a positive integer (got \"four\")");
    ]

let test_stress_many_small_batches () =
  Util.Pool.with_pool ~jobs:4 (fun p ->
      for n = 0 to 40 do
        let xs = List.init n (fun i -> i) in
        Alcotest.(check (list int))
          (Printf.sprintf "n=%d" n)
          (List.map (fun x -> x * x) xs)
          (Util.Pool.map p (fun x -> x * x) xs)
      done)

let suites =
  [ ( "pool",
      [ Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
        Alcotest.test_case "jobs=1 is List.map" `Quick test_jobs1_is_list_map;
        Alcotest.test_case "lowest-index exception" `Quick test_exception_is_lowest_index;
        Alcotest.test_case "exception contract jobs 1 vs 4" `Quick
          test_exception_contract_jobs_1_vs_4;
        Alcotest.test_case "HTVM_JOBS valid/unset" `Quick test_jobs_from_env_valid;
        Alcotest.test_case "HTVM_JOBS malformed fails loudly" `Quick
          test_jobs_from_env_rejects_malformed;
        Alcotest.test_case "reuse across batches" `Quick test_reuse_across_batches;
        Alcotest.test_case "iter runs everything" `Quick test_iter_runs_everything;
        Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
        Alcotest.test_case "parse_jobs" `Quick test_parse_jobs;
        Alcotest.test_case "stress small batches" `Slow test_stress_many_small_batches;
      ] )
  ]
