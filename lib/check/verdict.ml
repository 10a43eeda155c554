type stage = Compiling | Executing | Referencing

type t =
  | Pass of { wall_cycles : int }
  | Recovered of { wall_cycles : int; retries : int; detected : int }
  | Degraded of { wall_cycles : int; demotions : int }
  | Resource of Htvm.Compile.error
  | Reject of Htvm.Compile.error
  | Mismatch of { max_abs_diff : int }
  | Detected_uncorrected of { site : string; attempts : int }
  | Silent_corruption of { max_abs_diff : int; silent_faults : int }
  | Crash of { stage : stage; message : string }

let is_failure = function
  | Pass _ | Recovered _ | Degraded _ | Resource _ -> false
  | Reject _ | Mismatch _ | Detected_uncorrected _ | Silent_corruption _
  | Crash _ ->
      true

let stage_name = function
  | Compiling -> "compiling"
  | Executing -> "executing"
  | Referencing -> "referencing"

let error_class (e : Htvm.Compile.error) =
  match e with
  | Htvm.Compile.Out_of_memory _ -> "out-of-memory"
  | Htvm.Compile.No_feasible_tile _ -> "no-feasible-tile"
  | Htvm.Compile.Empty_graph -> "empty-graph"
  | Htvm.Compile.Internal _ -> "internal"

(* The class deliberately drops volatile detail (byte counts, diff
   magnitudes, exception messages): the shrinker must treat "same kind of
   failure, smaller numbers" as the same bug while it cuts the graph
   down. *)
let class_of = function
  | Pass _ -> "pass"
  | Recovered _ -> "recovered"
  | Degraded _ -> "degraded"
  | Resource e -> "resource:" ^ error_class e
  | Reject e -> "reject:" ^ error_class e
  | Mismatch _ -> "mismatch"
  | Detected_uncorrected _ -> "detected_uncorrected"
  | Silent_corruption _ -> "silent_corruption"
  | Crash { stage; _ } -> "crash:" ^ stage_name stage

let describe = function
  | Pass { wall_cycles } -> Printf.sprintf "pass (%d cycles)" wall_cycles
  | Recovered { wall_cycles; retries; detected } ->
      Printf.sprintf
        "recovered: output bit-identical after %d detected fault(s), %d \
         retry(ies) (%d cycles)"
        detected retries wall_cycles
  | Degraded { wall_cycles; demotions } ->
      Printf.sprintf
        "degraded: completed bit-identical with %d segment demotion(s) (%d \
         cycles)"
        demotions wall_cycles
  | Resource e -> "resource diagnosis: " ^ Htvm.Compile.error_to_string e
  | Reject e -> "compile reject: " ^ Htvm.Compile.error_to_string e
  | Mismatch { max_abs_diff } ->
      Printf.sprintf "output mismatch vs interpreter (max abs diff %d)" max_abs_diff
  | Detected_uncorrected { site; attempts } ->
      Printf.sprintf
        "detected but uncorrected: %s still failing after %d attempt(s)" site
        attempts
  | Silent_corruption { max_abs_diff; silent_faults } ->
      Printf.sprintf
        "silent corruption: %d silent fault(s) changed the output (max abs \
         diff %d)"
        silent_faults max_abs_diff
  | Crash { stage; message } ->
      Printf.sprintf "crash while %s: %s" (stage_name stage) message

let run_case ?(input_seed = 0) ?faults ?retry_budget cfg g =
  match Htvm.Compile.compile cfg g with
  | exception e -> Crash { stage = Compiling; message = Printexc.to_string e }
  | Error e ->
      if Htvm.Compile.is_resource_error e then Resource e else Reject e
  | Ok artifact -> (
      let inputs = Models.Zoo.random_input ~seed:input_seed g in
      match Ir.Eval.run g ~inputs with
      | exception e -> Crash { stage = Referencing; message = Printexc.to_string e }
      | reference -> (
          let session = Option.map Fault.Session.create faults in
          match Htvm.Compile.run artifact ?faults:session ?retry_budget ~inputs with
          | exception Fault.Session.Unrecovered { site; attempts } ->
              Detected_uncorrected { site; attempts }
          | exception e ->
              Crash { stage = Executing; message = Printexc.to_string e }
          | out, report ->
              let stats = Option.map Fault.Session.stats session in
              let injected =
                match stats with Some s -> s.Fault.Session.injected | None -> 0
              in
              let silent =
                match stats with Some s -> s.Fault.Session.silent | None -> 0
              in
              if not (Tensor.equal reference out) then
                let max_abs_diff = Tensor.max_abs_diff reference out in
                (* A mismatch with silent faults injected is the reliability
                   model's expected worst case; without any it is a plain
                   compiler bug, fault plan or not. *)
                if silent > 0 then
                  Silent_corruption { max_abs_diff; silent_faults = silent }
                else Mismatch { max_abs_diff }
              else
                let wall = report.Sim.Machine.totals.Sim.Counters.wall in
                if wall <= 0 then
                  Crash { stage = Executing; message = "no cycles counted" }
                else if
                  (* Chaos-only classifications: a campaign (even an empty
                     plan) must be requested for these; a plain run_case
                     keeps its historical pass verdict. *)
                  faults <> None && artifact.Htvm.Compile.demotions <> []
                then
                  Degraded
                    {
                      wall_cycles = wall;
                      demotions = List.length artifact.Htvm.Compile.demotions;
                    }
                else if injected > 0 then
                  Recovered
                    {
                      wall_cycles = wall;
                      retries =
                        (match stats with
                        | Some s -> s.Fault.Session.retries
                        | None -> 0);
                      detected =
                        (match stats with
                        | Some s -> s.Fault.Session.detected
                        | None -> 0);
                    }
                else Pass { wall_cycles = wall }))

let run_seed seed =
  run_case ~input_seed:seed (Gen.random_config seed) (Gen.generate seed)

let run_chaos_seed ?retry_budget seed =
  run_case ~input_seed:seed
    ~faults:(Gen.random_fault_plan seed)
    ?retry_budget (Gen.chaos_config seed) (Gen.generate seed)

let describe_config (cfg : Htvm.Compile.config) =
  let p = cfg.Htvm.Compile.platform in
  Printf.sprintf
    "platform=%s l1=%dB strategy=%s double_buffer=%b pe=%b dma=%b autotune=%s \
     jobs=%d degraded=%s"
    p.Arch.Platform.platform_name p.Arch.Platform.l1.Arch.Memory.size_bytes
    (match cfg.Htvm.Compile.memory_strategy with
    | Dory.Memplan.Reuse -> "reuse"
    | Dory.Memplan.No_reuse -> "no_reuse")
    cfg.Htvm.Compile.double_buffer cfg.Htvm.Compile.use_pe_heuristics
    cfg.Htvm.Compile.use_dma_heuristic
    (match cfg.Htvm.Compile.autotune_budget with
    | None -> "none"
    | Some b -> string_of_int b)
    cfg.Htvm.Compile.jobs
    (match cfg.Htvm.Compile.degraded_targets with
    | [] -> "none"
    | ts -> String.concat "+" ts)

let reproducer ?faults ~seed ~config ~graph ~verdict () =
  let fault_lines =
    match faults with
    | None -> []
    | Some plan -> [ Printf.sprintf "# faults: %s" (Fault.Plan.to_string plan) ]
  in
  let replay =
    match faults with
    | None -> Printf.sprintf "# replay: htvmc check --replay-seed %d" seed
    | Some _ -> Printf.sprintf "# replay: htvmc chaos --replay-seed %d" seed
  in
  String.concat "\n"
    ([
       "# htvm check reproducer";
       Printf.sprintf "# seed: %d" seed;
       Printf.sprintf "# verdict: %s" (describe verdict);
       Printf.sprintf "# class: %s" (class_of verdict);
       Printf.sprintf "# config: %s" (describe_config config);
     ]
    @ fault_lines
    @ [
        Printf.sprintf "# ops: %d" (Ir.Graph.app_count graph);
        replay;
        Ir.Text.to_string graph;
      ])
