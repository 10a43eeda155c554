(* The resilience layer: seeded fault injection, the runtime reliability
   model (checksums + bounded retry), the compiler's fallback ladder and
   the chaos checker. The two load-bearing invariants:

   - an empty plan is a strict no-op (identical output, cycles and trace
     event counts), so resilience support costs nothing when unused;
   - a recovered run is bit-identical to the fault-free run and its extra
     wall cycles are exactly the modeled retry cost — detected faults
     never mutate simulated memory. *)

module Dtype = Tensor.Dtype
module C = Htvm.Compile
module Plan = Fault.Plan
module Session = Fault.Session

(* One digital conv step, small enough to be untiled: its single dma_in
   transfer makes retry-cycle accounting exactly predictable. *)
let conv_graph ?(wdtype = Dtype.I8) () =
  let b = Ir.Graph.Builder.create () in
  let rng = Util.Rng.create 8 in
  let x = Ir.Graph.Builder.input b ~name:"x" Dtype.I8 [| 4; 8; 8 |] in
  let w = Ir.Graph.Builder.const b (Tensor.random rng wdtype [| 8; 4; 3; 3 |]) in
  let conv = Ir.Graph.Builder.conv2d b ~padding:(1, 1) x ~weights:w in
  let q =
    Ir.Graph.Builder.requantize b ~relu:true ~shift:9 ~out_dtype:Dtype.I8 conv
  in
  Ir.Graph.Builder.finish b ~output:q

let compile_exn cfg g =
  match C.compile cfg g with
  | Ok a -> a
  | Error e -> Alcotest.failf "compile failed: %s" (C.error_to_string e)

let inputs_for _g =
  [ ("x", Tensor.random (Util.Rng.create 9) Dtype.I8 [| 4; 8; 8 |]) ]

let digital_artifact () =
  let g = conv_graph () in
  (g, compile_exn (C.default_config Arch.Diana.digital_only) g)

let plan_exn spec =
  match Plan.of_string spec with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad plan spec %S: %s" spec e

(* --- plan data model --- *)

let test_plan_roundtrip () =
  let spec = "seed=42,dma_in@every=5:drop,l2@nth=3:flip=2,compute(diana_analog)@p=0.25:stall=200" in
  let p = plan_exn spec in
  Alcotest.(check int) "seed" 42 p.Plan.seed;
  Alcotest.(check int) "rules" 3 (List.length p.Plan.rules);
  let p' = plan_exn (Plan.to_string p) in
  Alcotest.(check bool) "canonical round-trip" true (p = p');
  Alcotest.(check bool) "none is empty" true
    (Plan.is_empty (plan_exn "none") && Plan.is_empty (plan_exn ""));
  Alcotest.(check string) "empty renders as none" "none"
    (Plan.to_string Plan.empty);
  (match Plan.of_string "dma_in@always:explode" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad kind accepted");
  match Plan.of_string "warp_core@always:drop" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad site accepted"

(* [drop] is a failed transfer or a compute watchdog; on a memory site
   nothing can fail, so the parser refuses it (every surface that takes
   a plan string inherits the refusal) instead of counting an injection
   that does nothing. A bare [seed=] is a bad seed, not a bad rule. *)
let test_plan_rejects_memory_drop () =
  List.iter
    (fun (spec, rule) ->
      match Plan.of_string spec with
      | Ok _ -> Alcotest.failf "%S accepted" spec
      | Error e ->
          Alcotest.(check bool) (spec ^ ": names the rule") true
            (Helpers.contains e (Printf.sprintf "%S" rule)
            && Helpers.contains e "drop"))
    [
      ("seed=1,l2@p=0.1:drop", "l2@p=0.1:drop");
      ("l1@always:drop", "l1@always:drop");
      ("dma_in@every=3:flip\nl2@nth=2:drop # rot", "l2@nth=2:drop");
    ];
  List.iter
    (fun spec -> ignore (plan_exn spec))
    [ "l2@p=0.1:flip"; "l1@every=2:stall=10"; "dma_in@always:drop"; "compute@nth=1:drop" ];
  List.iter
    (fun spec ->
      match Plan.of_string spec with
      | Ok _ -> Alcotest.failf "%S accepted" spec
      | Error e ->
          Alcotest.(check string) (spec ^ ": message") "bad fault seed \"seed=\"" e)
    [ "seed="; "dma_in@always:flip,seed=" ];
  let g, artifact = digital_artifact () in
  match
    Campaign.run
      { Campaign.default with Campaign.c_site = "l2"; c_kind = "drop" }
      artifact ~graph:g
  with
  | Ok _ -> Alcotest.fail "campaign accepted drop on l2"
  | Error e -> Alcotest.(check bool) "campaign names the rule" true (Helpers.contains e "drop")

(* --- empty plan is a strict no-op --- *)

let test_empty_plan_noop () =
  let g, artifact = digital_artifact () in
  let inputs = inputs_for g in
  let t_clean = Trace.create () in
  let out_clean, rep_clean = C.run ~trace:t_clean artifact ~inputs in
  let t_empty = Trace.create () in
  let session = Session.create Plan.empty in
  let out_empty, rep_empty =
    C.run ~trace:t_empty ~faults:session artifact ~inputs
  in
  Alcotest.(check bool) "output identical" true (Tensor.equal out_clean out_empty);
  Alcotest.(check int) "wall identical"
    rep_clean.Sim.Machine.totals.Sim.Counters.wall
    rep_empty.Sim.Machine.totals.Sim.Counters.wall;
  Alcotest.(check int) "trace event count identical"
    (List.length (Trace.events t_clean))
    (List.length (Trace.events t_empty));
  let st = Session.stats session in
  Alcotest.(check int) "nothing injected" 0 st.Session.injected;
  Alcotest.(check int) "no retry cycles" 0
    rep_empty.Sim.Machine.totals.Sim.Counters.retry_cycles

(* --- exact retry accounting (transient DMA fault) --- *)

let test_retry_accounting_exact () =
  let g, artifact = digital_artifact () in
  List.iter
    (fun (li : C.layer_info) ->
      if li.C.li_tiled then Alcotest.fail "expected an untiled single-transfer program")
    artifact.C.layers;
  let inputs = inputs_for g in
  let out_clean, rep_clean = C.run artifact ~inputs in
  let session = Session.create (plan_exn "seed=1,dma_in@nth=1:drop") in
  let out, rep = C.run ~faults:session ~retry_budget:3 artifact ~inputs in
  Alcotest.(check bool) "recovered run bit-identical" true
    (Tensor.equal out_clean out);
  let st = Session.stats session in
  Alcotest.(check int) "one fault injected" 1 st.Session.injected;
  Alcotest.(check int) "detected" 1 st.Session.detected;
  Alcotest.(check int) "one retry" 1 st.Session.retries;
  Alcotest.(check int) "silent none" 0 st.Session.silent;
  (* The dropped transfer is re-issued after the first back-off: the
     retry costs exactly backoff(1) + the transfer's own cycles, and the
     program has exactly one dma_in transfer, so that is the clean run's
     whole dma_in counter. *)
  let clean = rep_clean.Sim.Machine.totals and faulty = rep.Sim.Machine.totals in
  let expected = Session.backoff 1 + clean.Sim.Counters.dma_in in
  Alcotest.(check int) "retry cycles exact" expected
    faulty.Sim.Counters.retry_cycles;
  Alcotest.(check int) "wall = fault-free wall + retry cycles"
    (clean.Sim.Counters.wall + expected)
    faulty.Sim.Counters.wall;
  Alcotest.(check int) "base dma_in counter unchanged" clean.Sim.Counters.dma_in
    faulty.Sim.Counters.dma_in

(* The same contract under repeated drops on a whole network: ds_cnn
   (int8, digital accelerator) with every fifth input transfer dropped.
   Each drop is detected and retried, the output stays bit-exact, and the
   wall grows by exactly the accounted retry cycles. *)
let test_repeated_drops_exact () =
  let g = (Models.Zoo.find "ds_cnn").Models.Zoo.build Models.Policy.All_int8 in
  let artifact = compile_exn (C.default_config Arch.Diana.digital_only) g in
  let inputs = Models.Zoo.random_input g in
  let out_clean, rep_clean = C.run artifact ~inputs in
  let session = Session.create (plan_exn "seed=7,dma_in@every=5:drop") in
  let out, rep = C.run ~faults:session artifact ~inputs in
  Alcotest.(check bool) "recovered run bit-identical" true
    (Tensor.equal out_clean out);
  Alcotest.(check bool) "more than one fault detected" true
    ((Session.stats session).Session.detected > 1);
  let clean = rep_clean.Sim.Machine.totals and faulty = rep.Sim.Machine.totals in
  Alcotest.(check int) "wall = fault-free wall + retry cycles"
    (clean.Sim.Counters.wall + faulty.Sim.Counters.retry_cycles)
    faulty.Sim.Counters.wall

let test_backoff_formula () =
  Alcotest.(check (list int)) "exponential, capped at 256"
    [ 8; 16; 32; 64; 128; 256; 256 ]
    (List.map Session.backoff [ 1; 2; 3; 4; 5; 6; 7 ])

(* --- stalls --- *)

let test_stall_accounting () =
  let g, artifact = digital_artifact () in
  let inputs = inputs_for g in
  let out_clean, rep_clean = C.run artifact ~inputs in
  let session = Session.create (plan_exn "seed=5,compute@always:stall=100") in
  let out, rep = C.run ~faults:session artifact ~inputs in
  Alcotest.(check bool) "stall does not corrupt" true (Tensor.equal out_clean out);
  Alcotest.(check int) "stall cycles counted" 100
    rep.Sim.Machine.totals.Sim.Counters.fault_stall;
  Alcotest.(check int) "wall extended by exactly the stall"
    (rep_clean.Sim.Machine.totals.Sim.Counters.wall + 100)
    rep.Sim.Machine.totals.Sim.Counters.wall

(* --- silent corruption --- *)

let test_silent_compute_flip () =
  let g, artifact = digital_artifact () in
  let inputs = inputs_for g in
  let out_clean, _ = C.run artifact ~inputs in
  let session = Session.create (plan_exn "seed=2,compute@always:flip") in
  let out, _ = C.run ~faults:session artifact ~inputs in
  let st = Session.stats session in
  Alcotest.(check int) "one silent fault" 1 st.Session.silent;
  Alcotest.(check int) "nothing detected" 0 st.Session.detected;
  Alcotest.(check bool) "output corrupted" false (Tensor.equal out_clean out)

let test_l2_bit_rot_is_silent_and_free () =
  let g, artifact = digital_artifact () in
  let inputs = inputs_for g in
  let _, rep_clean = C.run artifact ~inputs in
  let session = Session.create (plan_exn "seed=3,l2@always:flip=3") in
  let _, rep = C.run ~faults:session artifact ~inputs in
  let st = Session.stats session in
  Alcotest.(check bool) "rot recorded as silent" true (st.Session.silent > 0);
  Alcotest.(check int) "rot costs no cycles"
    rep_clean.Sim.Machine.totals.Sim.Counters.wall
    rep.Sim.Machine.totals.Sim.Counters.wall

(* Rot in a ternary weight region can leave a byte outside {-1,0,1} —
   something no fault-free flow ever stores. The read path must decode it
   tolerantly (silent corruption), not crash tensor validation. *)
let test_ternary_rot_does_not_crash () =
  let g = conv_graph ~wdtype:Dtype.Ternary () in
  let artifact = compile_exn (C.default_config Arch.Diana.platform) g in
  Alcotest.(check bool) "a layer actually runs on the analog engine" true
    (List.exists (fun (li : C.layer_info) -> li.C.li_target = "diana_analog")
       artifact.C.layers);
  let inputs = inputs_for g in
  let session = Session.create (plan_exn "seed=9,l2@always:flip=2") in
  let _out, _rep = C.run ~faults:session artifact ~inputs in
  let st = Session.stats session in
  Alcotest.(check bool) "rot recorded as silent" true (st.Session.silent > 0);
  Alcotest.(check int) "nothing detected" 0 st.Session.detected

(* --- retry budget exhaustion --- *)

let test_unrecovered_raises () =
  let g, artifact = digital_artifact () in
  let inputs = inputs_for g in
  let session = Session.create (plan_exn "seed=4,dma_in@always:drop") in
  match C.run ~faults:session ~retry_budget:2 artifact ~inputs with
  | _ -> Alcotest.fail "expected Unrecovered"
  | exception Session.Unrecovered { site; attempts } ->
      Alcotest.(check string) "failing site" "dma_in" site;
      (* budget 2 allows attempts 1 and 2 to retry; attempt 3 aborts *)
      Alcotest.(check int) "attempts" 3 attempts

(* --- compiler fallback ladder --- *)

let test_degraded_target_demotes () =
  let g = conv_graph ~wdtype:Dtype.Ternary () in
  let cfg =
    { (C.default_config Arch.Diana.platform) with
      C.degraded_targets = [ "diana_analog" ] }
  in
  let artifact = compile_exn cfg g in
  (match artifact.C.demotions with
  | [ d ] ->
      Alcotest.(check string) "left the degraded target" "diana_analog" d.C.d_from;
      Alcotest.(check bool) "reason" true (d.C.d_reason = C.Degraded_target)
  | ds -> Alcotest.failf "expected one demotion, got %d" (List.length ds));
  List.iter
    (fun (li : C.layer_info) ->
      Alcotest.(check bool) "nothing lowered on the degraded engine" true
        (li.C.li_target <> "diana_analog"))
    artifact.C.layers;
  let inputs = inputs_for g in
  let out, report = C.run artifact ~inputs in
  Alcotest.(check bool) "demoted artifact still bit-exact" true
    (Tensor.equal out (Ir.Eval.run g ~inputs));
  (* the demotion reason must be visible in the machine-readable report *)
  let json = Htvm.Report.to_json artifact report in
  Alcotest.(check bool) "report JSON carries the demotion" true
    (Helpers.contains json "\"demotions\""
    && Helpers.contains json "degraded_target")

let test_memplan_never_fits () =
  let req = { Dory.Memplan.buffer_id = 0; bytes = 200; birth = 0; death = 1 } in
  match Dory.Memplan.plan Dory.Memplan.Reuse ~capacity:100 ~align:8 [ req ] with
  | Error (Dory.Memplan.Never_fits { nf_buffer_id; nf_bytes; nf_capacity }) ->
      Alcotest.(check int) "buffer id" 0 nf_buffer_id;
      Alcotest.(check int) "bytes" 200 nf_bytes;
      Alcotest.(check int) "capacity" 100 nf_capacity
  | Error e ->
      Alcotest.failf "expected Never_fits, got: %s" (Dory.Memplan.error_to_string e)
  | Ok _ -> Alcotest.fail "expected the oversized buffer to be rejected"

(* --- chaos checker --- *)

let test_chaos_deterministic_across_jobs () =
  let run = Check.run_chaos_seed ?retry_budget:None in
  let classes jobs =
    List.map
      (fun (c : Check.case) -> (c.Check.seed, Check.class_of c.Check.verdict))
      (Check.fuzz ~jobs ~run ~start:0 ~count:16 ())
  in
  let j1 = classes 1 and j4 = classes 4 in
  Alcotest.(check bool) "seed-order-identical verdicts at jobs 1 and 4" true
    (j1 = j4);
  List.iter
    (fun (seed, cls) ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d verdict %s is not a failure" seed cls)
        true
        (List.mem cls [ "pass"; "recovered"; "degraded"; "resource:out-of-memory";
                        "resource:no-feasible-tile" ]))
    j1

let test_chaos_reproducer_embeds_plan () =
  let seed = 57 in
  let g = Check.Gen.generate seed in
  let cfg = Check.Gen.chaos_config seed in
  let plan = Check.Gen.random_fault_plan seed in
  let text =
    Check.reproducer ~faults:plan ~seed ~config:cfg ~graph:g
      ~verdict:(Check.Pass { wall_cycles = 1 }) ()
  in
  Alcotest.(check bool) "fault plan line present" true
    (Helpers.contains text ("# faults: " ^ Plan.to_string plan));
  Alcotest.(check bool) "chaos replay command" true
    (Helpers.contains text (Printf.sprintf "htvmc chaos --replay-seed %d" seed));
  (* the embedded spec round-trips back to the exact plan *)
  let fault_line =
    List.find (fun l -> String.length l > 9 && String.sub l 0 9 = "# faults:")
      (String.split_on_char '\n' text)
  in
  let spec = String.sub fault_line 9 (String.length fault_line - 9) in
  (match Plan.of_string (String.trim spec) with
  | Ok p -> Alcotest.(check bool) "plan round-trips" true (p = plan)
  | Error e -> Alcotest.failf "embedded plan does not parse: %s" e);
  match Ir.Text.of_string text with
  | Ok g' ->
      Alcotest.(check int) "graph survives the preamble" (Ir.Graph.app_count g)
        (Ir.Graph.app_count g')
  | Error e -> Alcotest.failf "reproducer does not parse: %s" e

let suites =
  [ ( "fault",
      [ Alcotest.test_case "plan spec round-trips" `Quick test_plan_roundtrip;
        Alcotest.test_case "plan rejects drop on memory sites" `Quick
          test_plan_rejects_memory_drop;
        Alcotest.test_case "empty plan is a strict no-op" `Quick test_empty_plan_noop;
        Alcotest.test_case "exact retry accounting" `Quick test_retry_accounting_exact;
        Alcotest.test_case "repeated drops bit-exact, exact cost" `Quick
          test_repeated_drops_exact;
        Alcotest.test_case "backoff formula" `Quick test_backoff_formula;
        Alcotest.test_case "stall accounting" `Quick test_stall_accounting;
        Alcotest.test_case "silent compute flip corrupts" `Quick
          test_silent_compute_flip;
        Alcotest.test_case "L2 bit rot silent and free" `Quick
          test_l2_bit_rot_is_silent_and_free;
        Alcotest.test_case "ternary rot decodes tolerantly" `Quick
          test_ternary_rot_does_not_crash;
        Alcotest.test_case "unrecovered raises past budget" `Quick
          test_unrecovered_raises;
        Alcotest.test_case "degraded target demotes" `Quick
          test_degraded_target_demotes;
        Alcotest.test_case "memplan never-fits diagnosis" `Quick
          test_memplan_never_fits;
        Alcotest.test_case "chaos deterministic across jobs" `Quick
          test_chaos_deterministic_across_jobs;
        Alcotest.test_case "chaos reproducer embeds plan" `Quick
          test_chaos_reproducer_embeds_plan;
      ] )
  ]
