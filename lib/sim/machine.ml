module P = Program

type report = {
  per_step : (string * Counters.t) list;
  totals : Counters.t;
}

let accel_steps_peak r =
  List.fold_left
    (fun acc (name, c) ->
      if String.contains name ':' then acc + Counters.peak c else acc)
    0 r.per_step

let read_buffer l2 (b : P.buffer) = Mem.read_tensor l2 b.P.l2_offset b.P.b_dtype b.P.b_shape

let write_buffer l2 (b : P.buffer) tensor =
  if Tensor.shape tensor <> b.P.b_shape
     || not (Tensor.Dtype.equal (Tensor.dtype tensor) b.P.b_dtype)
  then
    invalid_arg
      (Printf.sprintf "Machine: tensor %s does not fit buffer %d" (Tensor.to_string tensor)
         b.P.buf_id);
  Mem.write_tensor l2 b.P.l2_offset tensor

(* Functional execution of a fused CPU kernel: external inputs come from L2
   buffers, constants from the graph, intermediates stay in registers, the
   last node's value is written back to L2. *)
let run_cpu_step ~l2 ~(prog : P.t) ~nodes ~ins ~out =
  let values = Hashtbl.create 16 in
  let lookup id =
    match Hashtbl.find_opt values id with
    | Some v -> v
    | None -> (
        match List.assoc_opt id ins with
        | Some buf -> read_buffer l2 (P.buffer prog buf)
        | None -> (
            match Ir.Graph.node prog.P.graph id with
            | Ir.Graph.Const t -> t
            | Ir.Graph.Input _ | Ir.Graph.App _ ->
                invalid_arg
                  (Printf.sprintf "Machine: node %%%d used before being computed" id)))
  in
  let last = ref None in
  List.iter
    (fun id ->
      match Ir.Graph.node prog.P.graph id with
      | Ir.Graph.App { op; args } ->
          let v = Ir.Eval.eval_op op (List.map lookup args) in
          Hashtbl.replace values id v;
          last := Some v
      | Ir.Graph.Input _ | Ir.Graph.Const _ ->
          invalid_arg "Machine: CPU kernel may only contain operator nodes")
    nodes;
  match !last with
  | Some v -> write_buffer l2 (P.buffer prog out) v
  | None -> invalid_arg "Machine: empty CPU kernel"

let run ~platform ?trace ?faults ?(retry_budget = 3) ?plan
    ?(plan_fresh_arena = false) (prog : P.t) ~inputs =
  (match P.validate prog with
  | Ok () -> ()
  | Error e -> invalid_arg ("Machine: invalid program: " ^ e));
  (match plan with
  | Some p when not (Plan.program p == prog) ->
      invalid_arg "Machine: plan was built for a different program"
  | _ -> ());
  let l2, l1 =
    match plan with
    | Some p -> Plan.checkout ~fresh:plan_fresh_arena p
    | None ->
        let l2 = Mem.create "L2" platform.Arch.Platform.l2.Arch.Memory.size_bytes in
        let l1 = Mem.create "L1" platform.Arch.Platform.l1.Arch.Memory.size_bytes in
        (* Poison both memories so reads of never-written bytes surface as
           wrong results in the differential tests rather than convenient
           zeros. *)
        Mem.fill l1 0x5A;
        List.iter (fun (off, t) -> Mem.write_tensor l2 off t) prog.P.weight_images;
        (l2, l1)
  in
  List.iter
    (fun (name, buf) ->
      match List.assoc_opt name inputs with
      | Some t -> write_buffer l2 (P.buffer prog buf) t
      | None -> invalid_arg ("Machine: missing input " ^ name))
    prog.P.input_buffers;
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (n, _) -> n = name) prog.P.input_buffers) then
        invalid_arg ("Machine: unknown input " ^ name))
    inputs;
  let totals = Counters.create () in
  let on = Trace.enabled trace in
  let clock = ref 0 in
  (* The plan decoded weights and biases once at build time; the oracle
     re-reads them from L2 per tile. Once L2 bit rot has landed, the
     request's remaining accelerator steps run the oracle on the same
     memories so a flipped weight bit is still seen. *)
  let l2_rotted = ref false in
  let per_step =
    List.mapi
      (fun step_index step ->
        (* Ambient bit rot: once per step and memory, before the step
           runs, the plan may flip bits in the occupied region or stall
           the bus. Drawn L2-first for determinism. *)
        let rot_c = Counters.create () in
        let rot = Resilience.make ?faults ~retry_budget rot_c in
        Resilience.mem_rot rot ~site:Fault.Plan.L2 ~mem:l2;
        if rot_c.Counters.faults_silent > 0 then l2_rotted := true;
        Resilience.mem_rot rot ~site:Fault.Plan.L1 ~mem:l1;
        let c =
          match step with
          | P.Accel { accel_name; schedule; ins; out; weights_offset; bias_offset } -> (
              match plan with
              | Some p when not !l2_rotted ->
                  Plan.run_accel_step p ~step_index ~l2 ~l1 ?trace ?faults
                    ~retry_budget ~t0:!clock ()
              | _ ->
                  let accel = Arch.Platform.find_accel platform accel_name in
                  let buffers =
                    {
                      Exec_accel.in_offsets =
                        List.map (fun id -> (P.buffer prog id).P.l2_offset) ins;
                      out_offset = (P.buffer prog out).P.l2_offset;
                      weights_offset;
                      bias_offset;
                    }
                  in
                  Exec_accel.run ~platform ~accel ~l2 ~l1 ~buffers ?trace
                    ~t0:!clock ?faults ~retry_budget schedule)
          | P.Cpu { kernel_name; nodes; ins; out; cycles } ->
              run_cpu_step ~l2 ~prog ~nodes ~ins ~out;
              let c = Counters.create () in
              c.Counters.cpu_compute <- cycles;
              c.Counters.wall <- cycles;
              if on && cycles > 0 then
                Trace.interval trace ~track:"host" ~ts:!clock ~dur:cycles kernel_name;
              c
        in
        c.Counters.faults_silent <-
          c.Counters.faults_silent + rot_c.Counters.faults_silent;
        c.Counters.fault_stall <-
          c.Counters.fault_stall + rot_c.Counters.fault_stall;
        c.Counters.wall <- c.Counters.wall + rot_c.Counters.fault_stall;
        Resilience.emit_events rot trace ~ts:!clock;
        Counters.add totals c;
        if on then begin
          (* One interval per step on its own track: summed durations here
             equal [totals.wall] exactly. *)
          Trace.interval trace ~track:"steps" ~ts:!clock ~dur:c.Counters.wall
            ~args:
              [
                ("dma_bytes_in", Trace.Json.Int c.Counters.dma_bytes_in);
                ("dma_bytes_out", Trace.Json.Int c.Counters.dma_bytes_out);
                ("stall", Trace.Json.Int c.Counters.stall);
              ]
            (P.step_name step);
          let at = !clock + c.Counters.wall in
          Trace.counter trace ~track:"mem" ~ts:at ~value:(Mem.high_water l2)
            "L2 high-water (B)";
          Trace.counter trace ~track:"mem" ~ts:at ~value:(Mem.high_water l1)
            "L1 high-water (B)"
        end;
        clock := !clock + c.Counters.wall;
        (P.step_name step, c))
      prog.P.steps
  in
  let output = read_buffer l2 (P.buffer prog prog.P.output_buffer) in
  (output, { per_step; totals })
