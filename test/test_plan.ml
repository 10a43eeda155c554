(* Differential conformance for compiled execution plans (Sim.Plan): the
   fast path must be byte-identical to the slow oracle — output bytes,
   per-step counters, aggregate counters and trace events — on zoo models
   and randomly generated graphs/configs, fault-free and under fault
   sessions (where session stats and [Unrecovered] raises must match
   too). Plans are rejected for programs they were not built for. *)

module C = Htvm.Compile

let compare_counters label a b =
  List.iter2
    (fun (n, x) (_, y) -> Alcotest.(check int) (label ^ ": " ^ n) x y)
    (Sim.Counters.fields a) (Sim.Counters.fields b)

let compare_reports label (slow : Sim.Machine.report) (fast : Sim.Machine.report) =
  Alcotest.(check int)
    (label ^ ": step count")
    (List.length slow.Sim.Machine.per_step)
    (List.length fast.Sim.Machine.per_step);
  List.iter2
    (fun (n1, c1) (n2, c2) ->
      Alcotest.(check string) (label ^ ": step name") n1 n2;
      compare_counters (label ^ "/" ^ n1) c1 c2)
    slow.Sim.Machine.per_step fast.Sim.Machine.per_step;
  compare_counters (label ^ ": totals") slow.Sim.Machine.totals
    fast.Sim.Machine.totals

let compare_outputs label slow fast =
  if not (Tensor.equal slow fast) then
    Alcotest.failf "%s: plan output differs (max diff %d)" label
      (Tensor.max_abs_diff slow fast)

(* Trace events carry name/cat/track/ts/dur/kind/args; both paths are
   deterministic, so the full event lists must match structurally. *)
let compare_traces label slow fast =
  Alcotest.(check int)
    (label ^ ": trace event count")
    (List.length (Trace.events slow))
    (List.length (Trace.events fast));
  Alcotest.(check bool) (label ^ ": trace events identical") true
    (Trace.events slow = Trace.events fast)

(* Output bytes, per-step counters and trace events of one request on the
   plan path against the slow oracle; returns the oracle's output. *)
let traced_differential label artifact ~inputs =
  let tr_slow = Trace.create () and tr_fast = Trace.create () in
  let out_slow, rep_slow = C.run ~trace:tr_slow ~use_plan:false artifact ~inputs in
  let out_fast, rep_fast = C.run ~trace:tr_fast artifact ~inputs in
  compare_outputs label out_slow out_fast;
  compare_reports label rep_slow rep_fast;
  compare_traces label tr_slow tr_fast;
  out_slow

(* The same for two requests in a row: arena reuse across requests must
   not leak state. *)
let check_against_oracle label artifact g =
  let inputs = Models.Zoo.random_input ~seed:Check.Golden.input_seed g in
  ignore (traced_differential label artifact ~inputs);
  let inputs2 = Models.Zoo.random_input ~seed:(Check.Golden.input_seed + 1) g in
  let out_slow2, rep_slow2 = C.run ~use_plan:false artifact ~inputs:inputs2 in
  let out_fast2, rep_fast2 = C.run artifact ~inputs:inputs2 in
  compare_outputs (label ^ " (2nd request)") out_slow2 out_fast2;
  compare_reports (label ^ " (2nd request)") rep_slow2 rep_fast2

let compile_zoo model config =
  let entry = Models.Zoo.find model in
  let _, platform, policy =
    List.find (fun (c, _, _) -> c = config) Check.Golden.configurations
  in
  let g = entry.Models.Zoo.build policy in
  let cfg = { (C.default_config platform) with C.jobs = 1 } in
  match C.compile cfg g with
  | Ok a -> (a, g)
  | Error e -> Alcotest.failf "%s/%s: %s" model config (C.error_to_string e)

(* All 16 Table I deployments: every kernel shape the zoo has (1x1 planes
   on ternary and int8 weights, padded and strided rows, depthwise,
   dense, residual adds, fused pools) crosses the plan path on a real
   network. The golden suite runs the plan path end to end; this pins the
   differential against the slow oracle including counters and traces,
   which digests cannot see. *)
let test_zoo_differential () =
  List.iter
    (fun (model, config) ->
      let artifact, g = compile_zoo model config in
      check_against_oracle (model ^ "/" ^ config) artifact g)
    Check.Golden.cases

(* One analog 1x1 conv whose ternary weights hold an all-zero output
   filter: the plan skips every tap of that channel, which must still come
   out as the requantized bias. *)
let test_zero_filter_differential () =
  let module B = Ir.Graph.Builder in
  let c = 8 and k = 8 and zero_k = 3 in
  let rng = Util.Rng.create 5 in
  let w = Tensor.random rng Tensor.Dtype.Ternary [| k; c; 1; 1 |] in
  for i = zero_k * c to ((zero_k + 1) * c) - 1 do
    Tensor.set_flat w i 0
  done;
  let b = B.create () in
  let x = B.input b ~name:"x" Tensor.Dtype.I8 [| c; 6; 6 |] in
  let y = B.conv2d b x ~weights:(B.const b w) in
  let bias = Tensor.of_array Tensor.Dtype.I32 [| k |] (Array.init k (fun i -> (97 * i) - 300)) in
  let y = B.bias_add b y ~bias:(B.const b bias) in
  let g = B.finish b ~output:(B.requantize b ~shift:3 ~out_dtype:Tensor.Dtype.I8 y) in
  let cfg = { (C.default_config Arch.Diana.analog_only) with C.jobs = 1 } in
  let artifact = Result.get_ok (C.compile cfg g) in
  Alcotest.(check int) "the conv runs on the accelerator" 1
    (Sim.Plan.stats artifact.C.plan).Sim.Plan.accel_steps;
  check_against_oracle "zero filter" artifact g

(* --- Lane sums at their bound ------------------------------------------- *)

(* How a lane case fills its input and weights. [Bound]: both at their
   dtype's most negative value, so every unpadded sum is
   taps * max|x| * max|w|, the bound the plan sizes its packed lanes by.
   [Opposite]: the most positive input against the most negative weight,
   the negative extreme. [Random]: drawn from the seed. *)
type fill = Bound | Opposite | Random of int

let fill_name = function
  | Bound -> "bound"
  | Opposite -> "opposite"
  | Random seed -> Printf.sprintf "random %d" seed

(* One conv of [k] filters (depthwise: [c]) of [fy] x [fx] taps at
   [stride] over a [c] x [h] x [w] I8 input, padded by [pad], with an
   optional fused 2x2 max pool, on digital_only (I8 weights) or
   analog_only (ternary), [l1_kib] shrinking L1 to force tiling. Under an
   extreme fill every unpadded sum is the same, and the bias brings it
   back to a small per-channel value that the unshifted requantize keeps
   bit for bit. A random fill is shifted so that B lands in 8 bits, where
   a wrapped lane still shows. *)
let lane_case ~analog ~c ~k ~kernel:(fy, fx) ~input:(h, w) ~stride ~pad ~dw ~pool
    ~l1_kib fill =
  let module B = Ir.Graph.Builder in
  let module D = Tensor.Dtype in
  let w_dtype = if analog then D.Ternary else D.I8 in
  let cg = if dw then 1 else c and k = if dw then c else k in
  let x_shape = [| c; h; w |] and w_shape = [| k; cg; fy; fx |] in
  let x, w, sum =
    match fill with
    | Random seed ->
        let rng = Util.Rng.create seed in
        let x = Tensor.random rng D.I8 x_shape in
        (x, Tensor.random rng w_dtype w_shape, None)
    | Bound | Opposite ->
        let xv = if fill = Bound then D.min_value D.I8 else D.max_value D.I8 in
        let wv = D.min_value w_dtype in
        let x = Tensor.create D.I8 x_shape and w = Tensor.create w_dtype w_shape in
        Tensor.fill x xv;
        Tensor.fill w wv;
        (x, w, Some (cg * fy * fx * xv * wv))
  in
  let bias_of, shift =
    match sum with
    | Some s -> ((fun ko -> (13 * ko) - 40 - s), 0)
    | None ->
        let bound = cg * fy * fx * 128 * if analog then 1 else 128 in
        let rec bits b = if bound lsr b = 0 then b else bits (b + 1) in
        ((fun ko -> (13 * ko) - 40), max 0 (bits 0 - 8))
  in
  let b = B.create () in
  let xi = B.input b ~name:"x" D.I8 x_shape in
  let y =
    B.conv2d b ~stride:(stride, stride) ~padding:pad
      ~groups:(if dw then c else 1)
      xi ~weights:(B.const b w)
  in
  let bias = Tensor.of_array D.I32 [| k |] (Array.init k bias_of) in
  let y = B.requantize b ~shift ~out_dtype:D.I8 (B.bias_add b y ~bias:(B.const b bias)) in
  let y = if pool then B.max_pool b ~pool:(2, 2) ~stride:(2, 2) y else y in
  let g = B.finish b ~output:y in
  let platform = if analog then Arch.Diana.analog_only else Arch.Diana.digital_only in
  let platform =
    match l1_kib with
    | None -> platform
    | Some n ->
        {
          platform with
          Arch.Platform.l1 = { Arch.Memory.level_name = "L1"; size_bytes = Util.Ints.kib n };
        }
  in
  let cfg = { (C.default_config platform) with C.jobs = 1 } in
  (C.compile cfg g, g, [ ("x", x) ])

(* A compiled lane case on the plan path against the oracle (outputs,
   counters, traces), and the oracle against the interpreter. *)
let lane_differential label artifact g inputs =
  let out = traced_differential label artifact ~inputs in
  compare_outputs (label ^ " vs interpreter") (Ir.Eval.run g ~inputs) out

(* Lane sums at both extremes, where a lane one bit narrower than the
   header's rule wraps: I8 x I8 at 63 and 64 taps (the lane width steps
   from 21 to 22 bits, three lanes to two), ternary x I8 below and at 128
   taps (four lanes to three) and at the analog array's 1152 rows, channel
   counts that leave a partial lane group, a fused pool, a depthwise layer
   (one lane) and two layers tiled on a shrunken L1: the I8 one by rows,
   the ternary one into tiles of 26 and 11 channels. Two non-square
   kernels add kernel rows of two triples and a leftover tap, and of one
   triple and a leftover tap, at stride 2 and at an odd output width. *)
let test_lane_bound () =
  let square ~analog ~l1_kib ~c ~k ~f ~hw ~pad =
    lane_case ~analog ~c ~k ~kernel:(f, f) ~input:(hw, hw) ~stride:1 ~pad:(pad, pad)
      ~l1_kib
  in
  let digital = square ~analog:false ~l1_kib:None
  and analog = square ~analog:true ~l1_kib:None in
  let cases =
    [ ("i8, 63 taps, k 5", digital ~c:63 ~k:5 ~f:1 ~hw:6 ~pad:0 ~dw:false ~pool:false);
      ("i8, 64 taps, k 7", digital ~c:64 ~k:7 ~f:1 ~hw:6 ~pad:0 ~dw:false ~pool:false);
      ("i8, 63 taps 3x3, k 7", digital ~c:7 ~k:7 ~f:3 ~hw:6 ~pad:0 ~dw:false ~pool:false);
      ("i8, 64 taps, pool", digital ~c:64 ~k:5 ~f:1 ~hw:6 ~pad:0 ~dw:false ~pool:true);
      ("i8, depthwise", digital ~c:5 ~k:5 ~f:3 ~hw:6 ~pad:1 ~dw:true ~pool:false);
      ( "i8, 64 taps, 2 kB L1",
        square ~analog:false ~c:64 ~k:7 ~f:1 ~hw:8 ~pad:0 ~dw:false ~pool:false
          ~l1_kib:(Some 2) );
      ( "ternary, 127 taps, 3 kB L1",
        square ~analog:true ~c:127 ~k:37 ~f:1 ~hw:6 ~pad:0 ~dw:false ~pool:false
          ~l1_kib:(Some 3) );
      ("ternary, 127 taps, k 5", analog ~c:127 ~k:5 ~f:1 ~hw:6 ~pad:0 ~dw:false ~pool:false);
      ("ternary, 128 taps, k 7", analog ~c:128 ~k:7 ~f:1 ~hw:6 ~pad:0 ~dw:false ~pool:false);
      ("ternary, 1152 taps, k 7", analog ~c:128 ~k:7 ~f:3 ~hw:5 ~pad:0 ~dw:false ~pool:false);
      ("ternary, 127 taps, pool", analog ~c:127 ~k:7 ~f:1 ~hw:6 ~pad:0 ~dw:false ~pool:true);
      ( "i8, 5x7 stride 2, k 5",
        lane_case ~analog:false ~c:3 ~k:5 ~kernel:(5, 7) ~input:(11, 14) ~stride:2
          ~pad:(0, 0) ~dw:false ~pool:false ~l1_kib:None );
      ( "ternary, 7x4, odd width",
        lane_case ~analog:true ~c:9 ~k:7 ~kernel:(7, 4) ~input:(9, 12) ~stride:1
          ~pad:(3, 2) ~dw:false ~pool:false ~l1_kib:None );
    ]
  in
  List.iter
    (fun (name, case) ->
      List.iter
        (fun fill ->
          let label = name ^ ", " ^ fill_name fill in
          match case fill with
          | Error e, _, _ -> Alcotest.failf "%s: %s" label (C.error_to_string e)
          | Ok artifact, g, inputs ->
              Alcotest.(check int) (label ^ ": the conv runs on the accelerator") 1
                (Sim.Plan.stats artifact.C.plan).Sim.Plan.accel_steps;
              lane_differential label artifact g inputs)
        [ Bound; Opposite ])
    cases

(* Random conv geometries on either accelerator: kernels of 1 to 7 rows
   and columns (so kernel rows of 0 to 2 triples with 0 to 2 leftover
   taps), stride 1 or 2, non-square inputs giving odd and even output
   widths, extreme or random fills, sometimes tiled; a deployment that
   does not compile is the fuzz suite's business. *)
let prop_lane_sums =
  Helpers.qtest ~count:60 "lane sums exact over random conv geometries"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let analog = Util.Rng.bool rng in
      let fy = Util.Rng.int_in rng 1 7 and fx = Util.Rng.int_in rng 1 7 in
      let stride = Util.Rng.int_in rng 1 2 in
      let dw = (not analog) && Util.Rng.int rng 4 = 0 in
      let c = Util.Rng.int_in rng 1 (max 1 (min 200 (1152 / (fy * fx)))) in
      let k = if dw then c else Util.Rng.int_in rng 1 9 in
      let h = Util.Rng.int_in rng fy (fy + 6) and w = Util.Rng.int_in rng fx (fx + 7) in
      let ((py, px) as pad) = if Util.Rng.bool rng then (fy / 2, fx / 2) else (0, 0) in
      let oh = ((h + (2 * py) - fy) / stride) + 1
      and ow = ((w + (2 * px) - fx) / stride) + 1 in
      let pool = oh >= 2 && ow >= 2 && Util.Rng.int rng 3 = 0 in
      let l1_kib = if Util.Rng.bool rng then None else Some [| 2; 8 |].(Util.Rng.int rng 2) in
      let fill = [| Bound; Opposite; Random seed |].(Util.Rng.int rng 3) in
      let label =
        Printf.sprintf "seed %d: %s c %d k %d %dx%d stride %d in %dx%d pad %d,%d%s%s, %s"
          seed
          (if analog then "ternary" else "i8")
          c k fy fx stride h w py px
          (if dw then " depthwise" else "")
          (if pool then " pool" else "")
          (fill_name fill)
      in
      match
        lane_case ~analog ~c ~k ~kernel:(fy, fx) ~input:(h, w) ~stride ~pad ~dw ~pool
          ~l1_kib fill
      with
      | Error _, _, _ -> true
      | Ok artifact, g, inputs ->
          lane_differential label artifact g inputs;
          true)

(* Random graphs x random deployment configs: the fuzz generator's whole
   operator vocabulary (depthwise, strides, residual adds, concats,
   pooling, softmax heads, shrunken-L1 tilings) through both paths. *)
let test_random_differential () =
  let ran = ref 0 in
  for seed = 0 to 39 do
    let g = Check.Gen.generate seed in
    let cfg = Check.Gen.random_config seed in
    match C.compile cfg g with
    | Error _ -> () (* infeasible deployments are the fuzz suite's business *)
    | Ok artifact -> (
        let label = Printf.sprintf "seed %d" seed in
        let inputs = Models.Zoo.random_input ~seed g in
        match C.run ~use_plan:false artifact ~inputs with
        | exception e -> (
            (* If the slow oracle rejects the run, the plan path must fail
               identically — never silently produce bytes. *)
            match C.run artifact ~inputs with
            | exception e' ->
                Alcotest.(check string)
                  (label ^ ": same failure")
                  (Printexc.to_string e) (Printexc.to_string e')
            | _ ->
                Alcotest.failf "%s: slow path raised %s but plan path succeeded"
                  label (Printexc.to_string e))
        | out_slow, rep_slow ->
            incr ran;
            let out_fast, rep_fast = C.run artifact ~inputs in
            compare_outputs label out_slow out_fast;
            compare_reports label rep_slow rep_fast)
  done;
  Alcotest.(check bool) "enough random deployments actually ran" true (!ran >= 10)

(* The fault-free service cycles are a property of the compiled
   schedule: whatever the input, a fault-free run on either path reports
   exactly [C.service_cycles], the constant serving's auto resolution
   reads instead of running a request. Timing that looked at the data
   would fail this. *)
let service_cycles_hold ~label (artifact, g) input_seeds =
  List.for_all
    (fun seed ->
      let inputs = Models.Zoo.random_input ~seed g in
      List.for_all
        (fun use_plan ->
          match C.run ~use_plan artifact ~inputs with
          | exception _ -> true (* a rejected run is the differentials' business *)
          | _, rep ->
              C.full_cycles rep = C.service_cycles artifact
              || QCheck.Test.fail_reportf
                   "%s, input seed %d, use_plan %b: ran %d cycles, plan says %d" label
                   seed use_plan (C.full_cycles rep) (C.service_cycles artifact))
        [ true; false ])
    input_seeds

let input_seeds n = QCheck.(list_of_size (Gen.return n) (int_range 1 1_000_000))

let prop_service_cycles_random =
  Helpers.qtest ~count:150 "fault-free cycles do not depend on the input (random)"
    QCheck.(pair (int_bound 100_000) (input_seeds 3))
    (fun (case, seeds) ->
      let g = Check.Gen.generate case in
      match C.compile (Check.Gen.random_config case) g with
      | Error _ -> true
      | Ok artifact ->
          service_cycles_hold ~label:(Printf.sprintf "case %d" case) (artifact, g) seeds)

let zoo_artifacts =
  lazy (List.map (fun (m, c) -> (m ^ "/" ^ c, compile_zoo m c)) Check.Golden.cases)

let prop_service_cycles_zoo =
  Helpers.qtest ~count:1 "fault-free cycles do not depend on the input (zoo)"
    (input_seeds 2)
    (fun seeds ->
      List.for_all
        (fun (label, case) -> service_cycles_hold ~label case seeds)
        (Lazy.force zoo_artifacts))

let digital_artifact =
  lazy
    (let entry = Models.Zoo.find "resnet8" in
     let g = entry.Models.Zoo.build Models.Policy.All_int8 in
     let cfg = { (C.default_config Arch.Diana.digital_only) with C.jobs = 1 } in
     (Result.get_ok (C.compile cfg g), g))

(* Plan stats agree with the program they were compiled from. *)
let test_stats () =
  let artifact, _ = Lazy.force digital_artifact in
  let stats = Sim.Plan.stats artifact.C.plan in
  let accel_steps =
    List.length
      (List.filter
         (function Sim.Program.Accel _ -> true | Sim.Program.Cpu _ -> false)
         artifact.C.program.Sim.Program.steps)
  in
  Alcotest.(check int) "accel steps" accel_steps stats.Sim.Plan.accel_steps;
  Alcotest.(check bool) "at least one tile per step" true
    (stats.Sim.Plan.tiles >= stats.Sim.Plan.accel_steps);
  Alcotest.(check bool) "scratch allocated" true (stats.Sim.Plan.scratch_words > 0);
  Alcotest.(check bool) "weight prefix captured, within the static region" true
    (stats.Sim.Plan.image_bytes > 0
    && stats.Sim.Plan.image_bytes <= artifact.C.l2_static_bytes);
  Alcotest.(check bool) "program identity" true
    (Sim.Plan.program artifact.C.plan == artifact.C.program);
  let cpu, _ = compile_zoo "ds_cnn" "cpu" in
  Alcotest.(check int) "a cpu deployment has no weight image" 0
    (Sim.Plan.stats cpu.C.plan).Sim.Plan.image_bytes

(* The plan reads each tile's weights from the L2 it runs on, like the
   oracle. Here the program's first accelerator step writes its output
   over the last one's weight image; both paths must see the overwritten
   weights. *)
let test_dma_out_over_weights () =
  let artifact, g = Lazy.force digital_artifact in
  let platform = artifact.C.cfg.C.platform in
  let prog = artifact.C.program in
  let accel =
    List.filter_map
      (function
        | Sim.Program.Accel { out; weights_offset; _ } -> Some (out, weights_offset)
        | Sim.Program.Cpu _ -> None)
      prog.Sim.Program.steps
  in
  let first_out = fst (List.hd accel) in
  let last_weights = snd (List.nth accel (List.length accel - 1)) in
  Alcotest.(check bool) "the last accelerator step has weights" true (last_weights >= 0);
  let moved =
    {
      prog with
      Sim.Program.buffers =
        List.map
          (fun (b : Sim.Program.buffer) ->
            if b.Sim.Program.buf_id = first_out then
              { b with Sim.Program.l2_offset = last_weights }
            else b)
          prog.Sim.Program.buffers;
    }
  in
  Alcotest.(check bool) "still a valid program" true (Sim.Program.validate moved = Ok ());
  let inputs = Models.Zoo.random_input ~seed:Check.Golden.input_seed g in
  let tr_slow = Trace.create () and tr_fast = Trace.create () in
  let out_slow, rep_slow = Sim.Machine.run ~platform ~trace:tr_slow moved ~inputs in
  let plan = Sim.Plan.build ~platform moved in
  let out_fast, rep_fast =
    Sim.Machine.run ~platform ~trace:tr_fast ~plan moved ~inputs
  in
  let out_intact, _ = C.run ~use_plan:false artifact ~inputs in
  Alcotest.(check bool) "the overwritten weights reach the output" false
    (Tensor.equal out_intact out_slow);
  compare_outputs "dma-out over weights" out_slow out_fast;
  compare_reports "dma-out over weights" rep_slow rep_fast;
  compare_traces "dma-out over weights" tr_slow tr_fast

(* The [Mem.Fault] message of a run that must fault. *)
let fault label run =
  match run () with
  | _ -> Alcotest.failf "%s: expected Mem.Fault" label
  | exception Sim.Mem.Fault msg -> msg

(* A weight slice past L2 is no build error: like the oracle, the plan
   faults when the step reads it, with the oracle's message. *)
let test_weights_past_l2 () =
  let artifact, g = Lazy.force digital_artifact in
  let platform = artifact.C.cfg.C.platform in
  let prog = artifact.C.program in
  let l2_size = platform.Arch.Platform.l2.Arch.Memory.size_bytes in
  let moved = ref false in
  let steps =
    List.map
      (function
        | Sim.Program.Accel a when (not !moved) && a.weights_offset >= 0 ->
            moved := true;
            Sim.Program.Accel { a with weights_offset = l2_size }
        | step -> step)
      prog.Sim.Program.steps
  in
  let bad = { prog with Sim.Program.steps } in
  let plan = Sim.Plan.build ~platform bad in
  let inputs = Models.Zoo.random_input ~seed:Check.Golden.input_seed g in
  Alcotest.(check string) "the oracle's fault"
    (fault "oracle" (fun () -> Sim.Machine.run ~platform bad ~inputs))
    (fault "plan" (fun () -> Sim.Machine.run ~platform ~plan bad ~inputs))

(* A weight image that does not fit L2 is a build error: [build] raises
   the fault the oracle's preload raises on every run. *)
let test_image_past_l2 () =
  let artifact, g = Lazy.force digital_artifact in
  let platform = artifact.C.cfg.C.platform in
  let prog = artifact.C.program in
  let l2_size = platform.Arch.Platform.l2.Arch.Memory.size_bytes in
  let bad =
    match List.rev prog.Sim.Program.weight_images with
    | (_, last) :: rest ->
        { prog with Sim.Program.weight_images = List.rev ((l2_size - 1, last) :: rest) }
    | [] -> Alcotest.fail "the digital deployment has weight images"
  in
  let inputs = Models.Zoo.random_input ~seed:Check.Golden.input_seed g in
  Alcotest.(check string) "the oracle's preload fault"
    (fault "oracle" (fun () -> Sim.Machine.run ~platform bad ~inputs))
    (fault "build" (fun () -> Sim.Plan.build ~platform bad))

(* [build] reads no weight value: a weight pushed out of its dtype's range
   (through [Tensor.unsafe_data], which skips the check) builds, and the
   run faults on both paths with the oracle's preload message. *)
let test_image_values_checked_at_run () =
  let artifact, g = Lazy.force digital_artifact in
  let platform = artifact.C.cfg.C.platform in
  let prog = artifact.C.program in
  let off, w, rest =
    match prog.Sim.Program.weight_images with
    | (off, w) :: rest -> (off, w, rest)
    | [] -> Alcotest.fail "the digital deployment has weight images"
  in
  let dt = Tensor.dtype w in
  let w' = Tensor.of_array dt (Tensor.shape w) (Tensor.unsafe_data w) in
  (Tensor.unsafe_data w').(Tensor.numel w - 1) <- Tensor.Dtype.max_value dt + 1;
  let bad = { prog with Sim.Program.weight_images = (off, w') :: rest } in
  let plan =
    match Sim.Plan.build ~platform bad with
    | plan -> plan
    | exception e -> Alcotest.failf "build raised %s" (Printexc.to_string e)
  in
  let inputs = Models.Zoo.random_input ~seed:Check.Golden.input_seed g in
  let oracle = fault "oracle" (fun () -> Sim.Machine.run ~platform bad ~inputs) in
  Alcotest.(check bool) "a range fault" true (Helpers.contains oracle "out of range");
  Alcotest.(check string) "the oracle's fault" oracle
    (fault "plan" (fun () -> Sim.Machine.run ~platform ~plan bad ~inputs));
  Alcotest.(check string) "again on the next run" oracle
    (fault "plan, 2nd run" (fun () -> Sim.Machine.run ~platform ~plan bad ~inputs))

(* A plan's image size is the images' extent, known at build before any
   run, and a checkout leaves it as the L2 high-water mark, as the
   oracle's preload does. *)
let test_image_extent () =
  List.iter
    (fun (model, config) ->
      let label = model ^ "/" ^ config in
      let artifact, _ = compile_zoo model config in
      let extent =
        List.fold_left
          (fun m (off, t) -> max m (off + Tensor.sim_bytes t))
          0 artifact.C.program.Sim.Program.weight_images
      in
      let image_bytes () = (Sim.Plan.stats artifact.C.plan).Sim.Plan.image_bytes in
      Alcotest.(check int) (label ^ ": before any run") extent (image_bytes ());
      if config = "cpu" then Alcotest.(check int) (label ^ ": no image") 0 extent;
      let l2, _ = Sim.Plan.checkout artifact.C.plan in
      Alcotest.(check int) (label ^ ": L2 mark after a checkout") (image_bytes ())
        (Sim.Mem.high_water l2))
    Check.Golden.cases

(* Two domains run a fresh plan's first request at once, so both may
   encode its image: each request still comes out as the oracle's. *)
let test_first_checkout_two_domains () =
  let artifact, g = compile_zoo "resnet8" "both" in
  let inputs = Models.Zoo.random_input ~seed:Check.Golden.input_seed g in
  let out_slow, rep_slow = C.run ~use_plan:false artifact ~inputs in
  let ready = Atomic.make 0 in
  let request () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    C.run artifact ~inputs
  in
  let domains = [ Domain.spawn request; Domain.spawn request ] in
  List.iteri
    (fun i d ->
      let out, rep = Domain.join d in
      let label = Printf.sprintf "domain %d" i in
      compare_outputs label out_slow out;
      compare_reports label rep_slow rep)
    domains

(* The per-domain arena is cached across checkouts. *)
let test_arena_reuse () =
  let artifact, _ = Lazy.force digital_artifact in
  let plan = artifact.C.plan in
  let l2a, l1a = Sim.Plan.checkout plan in
  let l2b, l1b = Sim.Plan.checkout plan in
  Alcotest.(check bool) "L2 reused" true (l2a == l2b);
  Alcotest.(check bool) "L1 reused" true (l1a == l1b)

(* The plan exists to be the fast path: on resnet8 (mixed, both) its best
   of three requests must not be slower than the oracle's best of three.
   A host-time bar, hence [`Slow]; the margin is an order of magnitude. *)
let test_plan_faster_than_oracle () =
  let artifact, g = compile_zoo "resnet8" "both" in
  let inputs = Models.Zoo.random_input ~seed:Check.Golden.input_seed g in
  let best_ms use_plan =
    List.fold_left Float.min infinity
      (List.init 3 (fun _ ->
           let t0 = Unix.gettimeofday () in
           ignore (C.run ~use_plan artifact ~inputs);
           (Unix.gettimeofday () -. t0) *. 1000.0))
  in
  let oracle_ms = best_ms false and plan_ms = best_ms true in
  if plan_ms > oracle_ms then
    Alcotest.failf "plan %.2f ms/request, oracle %.2f ms/request" plan_ms
      oracle_ms

(* An arena dies with its plan: building and running plan after plan on
   one domain must not keep their arenas alive. *)
let test_arena_dies_with_plan () =
  let _, platform, policy =
    List.find (fun (c, _, _) -> c = "both") Check.Golden.configurations
  in
  let g = (Models.Zoo.find "resnet8").Models.Zoo.build policy in
  let cfg = { (C.default_config platform) with C.jobs = 1 } in
  let artifact = Result.get_ok (C.compile cfg g) in
  let inputs = Models.Zoo.random_input ~seed:1 g in
  let run () =
    let plan = Sim.Plan.build ~platform artifact.C.program in
    ignore (Sim.Machine.run ~platform ~plan artifact.C.program ~inputs)
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  run ();
  let before = live_words () in
  for _ = 1 to 50 do
    run ()
  done;
  let grown = live_words () - before in
  let arena_words =
    (Sim.Plan.stats artifact.C.plan).Sim.Plan.scratch_words
    + ((platform.Arch.Platform.l1.Arch.Memory.size_bytes
       + platform.Arch.Platform.l2.Arch.Memory.size_bytes)
      / (Sys.word_size / 8))
  in
  if grown >= arena_words then
    Alcotest.failf "50 plans grew the live heap by %d words (one arena is %d)" grown
      arena_words

(* --- Faulted differentials ---------------------------------------------- *)

(* Everything observable about one faulted run: the result or the raise,
   the session's campaign stats and the full trace, partial on a raise. *)
type faulted = {
  f_result : (Tensor.t * Sim.Machine.report, exn) result;
  f_stats : Fault.Session.stats;
  f_events : Trace.event list;
}

let run_faulted ~use_plan ~retry_budget artifact ~inputs plan =
  let fs = Fault.Session.create plan in
  let tr = Trace.create () in
  let f_result =
    match C.run ~trace:tr ~faults:fs ~retry_budget ~use_plan artifact ~inputs with
    | r -> Ok r
    | exception e -> Error e
  in
  { f_result; f_stats = Fault.Session.stats fs; f_events = Trace.events tr }

let exn_label = function
  | Fault.Session.Unrecovered { site; attempts } ->
      Printf.sprintf "Unrecovered {site = %s; attempts = %d}" site attempts
  | e -> Printexc.to_string e

(* First differing (name, value) field of two same-shaped field lists. *)
let fields_diff label a b =
  List.find_map
    (fun ((n, x), (_, y)) ->
      if x = y then None else Some (Printf.sprintf "%s %s: %d vs %d" label n x y))
    (List.combine a b)

let counters_diff label a b =
  fields_diff label (Sim.Counters.fields a) (Sim.Counters.fields b)

(* The first observable difference between the oracle's run and the
   plan's, or [None] when they are byte-identical. *)
let faulted_diff oracle plan =
  let ( >>? ) d f = match d with Some _ -> d | None -> f () in
  (match (oracle.f_result, plan.f_result) with
  | Error e, Error e' ->
      if exn_label e = exn_label e' then None
      else Some (Printf.sprintf "raise: %s vs %s" (exn_label e) (exn_label e'))
  | Error e, Ok _ -> Some ("oracle raised " ^ exn_label e ^ ", plan did not")
  | Ok _, Error e -> Some ("plan raised " ^ exn_label e ^ ", oracle did not")
  | Ok (o, r), Ok (o', r') ->
      (if Tensor.equal o o' then None
       else
         Some
           (Printf.sprintf "output differs (max diff %d)" (Tensor.max_abs_diff o o')))
      >>? fun () ->
      (if List.length r.Sim.Machine.per_step = List.length r'.Sim.Machine.per_step
       then
         List.find_map
           (fun ((n, c), (_, c')) -> counters_diff ("step " ^ n) c c')
           (List.combine r.Sim.Machine.per_step r'.Sim.Machine.per_step)
       else Some "step count differs")
      >>? fun () -> counters_diff "totals" r.Sim.Machine.totals r'.Sim.Machine.totals)
  >>? fun () ->
  fields_diff "session"
    (Fault.Session.stats_fields oracle.f_stats)
    (Fault.Session.stats_fields plan.f_stats)
  >>? fun () ->
  if oracle.f_events = plan.f_events then None
  else
    Some
      (Printf.sprintf "trace events differ (%d vs %d events)"
         (List.length oracle.f_events) (List.length plan.f_events))

let differential ~retry_budget artifact ~inputs plan =
  let oracle = run_faulted ~use_plan:false ~retry_budget artifact ~inputs plan in
  let fast = run_faulted ~use_plan:true ~retry_budget artifact ~inputs plan in
  (oracle, faulted_diff oracle fast)

(* Every site x kind, under always / every / nth / p= triggers. [l2] rot
   reaches the weight images both paths read from L2; the last spec, at
   retry budget 0, must abort with [Unrecovered] on both paths. *)
let fault_specs =
  [ ("seed=1,dma_in@every=3:flip", 3);
    ("seed=2,dma_in@p=0.1:drop,dma_out@every=4:stall=40", 3);
    ("seed=3,dma_out@p=0.2:flip,dma_out@nth=2:drop", 3);
    ("seed=4,wload@every=2:flip,wload@p=0.3:stall=25", 3);
    ("seed=5,wload@nth=1:drop", 3);
    ("seed=6,compute@p=0.3:flip=2", 3);
    ("seed=7,compute@every=3:drop,compute@p=0.2:stall=17", 3);
    ("seed=8,l1@p=0.5:flip,l1@every=2:stall=9", 3);
    ("seed=9,l2@always:flip", 3);
    (* Single-bit rot is mostly masked by the requantizing shift; these
       flip enough weight bits to reach the output. *)
    ("seed=13,l2@nth=1:flip=64", 3);
    ("seed=14,l2@always:flip=16", 3);
    ("seed=10,l2@p=0.3:flip=3,l2@every=3:stall=11", 3);
    ("seed=11,dma_in@p=0.05:flip,compute@p=0.02:flip,l2@p=0.01:flip", 3);
    ("seed=12,dma_in@always:drop", 0);
  ]

(* One zoo model per deployment configuration, so every accelerator
   payload shape (cpu-only, digital, analog ternary, mixed) meets every
   fault spec. *)
let faulted_cases =
  [ ("ds_cnn", "cpu"); ("mobilenet_v1_025", "digital");
    ("toyadmos_dae", "analog"); ("resnet8", "both") ]

let test_zoo_faulted_differential () =
  let unrecovered = ref 0 and silent = ref 0 and detected = ref 0 in
  List.iter
    (fun (model, config) ->
      let artifact, g = compile_zoo model config in
      let inputs = Models.Zoo.random_input ~seed:Check.Golden.input_seed g in
      List.iter
        (fun (spec, retry_budget) ->
          let plan = Result.get_ok (Fault.Plan.of_string spec) in
          let oracle, diff = differential ~retry_budget artifact ~inputs plan in
          (match diff with
          | Some why -> Alcotest.failf "%s/%s [%s]: %s" model config spec why
          | None -> ());
          (match oracle.f_result with
          | Error (Fault.Session.Unrecovered _) -> incr unrecovered
          | _ -> ());
          silent := !silent + oracle.f_stats.Fault.Session.silent;
          detected := !detected + oracle.f_stats.Fault.Session.detected)
        fault_specs)
    faulted_cases;
  Alcotest.(check bool) "some run aborted Unrecovered" true (!unrecovered > 0);
  Alcotest.(check bool) "silent faults were injected" true (!silent > 0);
  Alcotest.(check bool) "detected faults were injected" true (!detected > 0)

(* Random graphs and chaos configs under their stock fault campaigns. A
   mismatch is minimized under the same campaign and reported as an
   [Ir.Text] reproducer. *)
let test_random_faulted_differential () =
  let ran = ref 0 in
  for seed = 0 to 39 do
    let g = Check.Gen.generate seed in
    let cfg = Check.Gen.chaos_config seed in
    let plan = Check.Gen.random_fault_plan seed in
    let diff_of artifact g =
      let inputs = Models.Zoo.random_input ~seed g in
      snd (differential ~retry_budget:3 artifact ~inputs plan)
    in
    match C.compile cfg g with
    | Error _ -> ()
    | Ok artifact -> (
        incr ran;
        match diff_of artifact g with
        | None -> ()
        | Some why ->
            let o =
              Check.Shrink.shrink ~max_checks:100
                ~predicate:(fun cfg g ->
                  match C.compile cfg g with
                  | Error _ -> false
                  | Ok a -> diff_of a g <> None)
                cfg g
            in
            let config = o.Check.Shrink.config and graph = o.Check.Shrink.graph in
            Alcotest.failf "seed %d [%s]: %s\nminimized:\n%s" seed
              (Fault.Plan.to_string plan) why
              (Check.reproducer ~seed ~config ~graph
                 ~verdict:(Check.run_case ~input_seed:seed config graph)
                 ()))
  done;
  Alcotest.(check bool) "enough random deployments actually ran" true (!ran >= 10)

(* Physical identity between plan and program is enforced, with or
   without a fault session. *)
let test_foreign_plan_rejected () =
  let artifact, g = Lazy.force digital_artifact in
  let cfg = { (C.default_config Arch.Diana.digital_only) with C.jobs = 1 } in
  let artifact2 = Result.get_ok (C.compile cfg g) in
  let inputs = Models.Zoo.random_input ~seed:3 g in
  let session () =
    Fault.Session.create
      (Result.get_ok (Fault.Plan.of_string "seed=11,dma_in@every=3:flip"))
  in
  List.iter
    (fun (label, faults) ->
      match
        Sim.Machine.run ~platform:artifact.C.cfg.C.platform ?faults
          ~plan:artifact.C.plan artifact2.C.program ~inputs
      with
      | _ -> Alcotest.failf "a foreign plan was accepted (%s)" label
      | exception Invalid_argument _ -> ())
    [ ("fault-free", None); ("fault session", Some (session ())) ]

let suites =
  [ ( "plan",
      [ Alcotest.test_case "zoo differential" `Quick test_zoo_differential;
        Alcotest.test_case "zero filter differential" `Quick
          test_zero_filter_differential;
        Alcotest.test_case "lane sums at their bound" `Quick test_lane_bound;
        prop_lane_sums;
        Alcotest.test_case "random differential" `Quick test_random_differential;
        Alcotest.test_case "stats" `Quick test_stats;
        Alcotest.test_case "dma-out over a weight image" `Quick
          test_dma_out_over_weights;
        Alcotest.test_case "weights past L2 fault at run time" `Quick
          test_weights_past_l2;
        Alcotest.test_case "image past L2 faults at build" `Quick test_image_past_l2;
        Alcotest.test_case "image values checked at run" `Quick
          test_image_values_checked_at_run;
        Alcotest.test_case "image extent" `Quick test_image_extent;
        Alcotest.test_case "first checkout from two domains" `Quick
          test_first_checkout_two_domains;
        Alcotest.test_case "arena reuse" `Quick test_arena_reuse;
        Alcotest.test_case "plan faster than the oracle" `Slow
          test_plan_faster_than_oracle;
        Alcotest.test_case "arena dies with its plan" `Quick
          test_arena_dies_with_plan;
        Alcotest.test_case "zoo faulted differential" `Quick
          test_zoo_faulted_differential;
        Alcotest.test_case "random faulted differential" `Quick
          test_random_faulted_differential;
        Alcotest.test_case "foreign plan rejected" `Quick
          test_foreign_plan_rejected;
        prop_service_cycles_random;
        prop_service_cycles_zoo;
      ] )
  ]
