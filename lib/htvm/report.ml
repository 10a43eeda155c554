module J = Trace.Json

(* Machine-readable counterpart of [to_markdown]; the schema is documented
   in DESIGN.md ("JSON report schema"). *)
let to_json_value (artifact : Compile.artifact) (report : Sim.Machine.report) =
  let cfg = artifact.Compile.cfg in
  let platform = cfg.Compile.platform in
  let counters_json (c : Sim.Counters.t) =
    [
      ("wall", J.Int c.Sim.Counters.wall);
      ("accel_compute", J.Int c.Sim.Counters.accel_compute);
      ("weight_load", J.Int c.Sim.Counters.weight_load);
      ("dma_in", J.Int c.Sim.Counters.dma_in);
      ("dma_out", J.Int c.Sim.Counters.dma_out);
      ("host_overhead", J.Int c.Sim.Counters.host_overhead);
      ("cpu_compute", J.Int c.Sim.Counters.cpu_compute);
      ("stall", J.Int c.Sim.Counters.stall);
      ("dma_bytes_in", J.Int c.Sim.Counters.dma_bytes_in);
      ("dma_bytes_out", J.Int c.Sim.Counters.dma_bytes_out);
      ("utilization", J.Float (Sim.Counters.utilization c));
    ]
    (* Fault accounting appears only when a campaign actually did
       something, so fault-free reports are byte-identical to the
       pre-resilience schema (and an empty plan is a strict no-op). *)
    @ (if
         c.Sim.Counters.faults_detected = 0
         && c.Sim.Counters.faults_silent = 0
         && c.Sim.Counters.retries = 0
         && c.Sim.Counters.retry_cycles = 0
         && c.Sim.Counters.fault_stall = 0
       then []
       else
         [
           ("faults_detected", J.Int c.Sim.Counters.faults_detected);
           ("faults_silent", J.Int c.Sim.Counters.faults_silent);
           ("retries", J.Int c.Sim.Counters.retries);
           ("retry_cycles", J.Int c.Sim.Counters.retry_cycles);
           ("fault_stall", J.Int c.Sim.Counters.fault_stall);
         ])
  in
  let demotions_json =
    match artifact.Compile.demotions with
    | [] -> []
    | ds ->
        [
          ( "demotions",
            J.List
              (List.map
                 (fun (d : Compile.demotion) ->
                   J.Obj
                     [
                       ("layer", J.Str d.Compile.d_layer);
                       ("from", J.Str d.Compile.d_from);
                       ("to", J.Str d.Compile.d_to);
                       ( "reason_class",
                         J.Str
                           (match d.Compile.d_reason with
                           | Compile.Degraded_target -> "degraded_target"
                           | Compile.Infeasible _ -> "infeasible") );
                       ( "reason",
                         J.Str
                           (Compile.demotion_reason_to_string d.Compile.d_reason)
                       );
                     ])
                 ds) );
        ]
  in
  let layers =
    List.map2
      (fun (li : Compile.layer_info) (name, (c : Sim.Counters.t)) ->
        J.Obj
          ([
             ("index", J.Int li.Compile.li_index);
             ("target", J.Str li.Compile.li_target);
             ("kernel", J.Str li.Compile.li_desc);
             ("step", J.Str name);
             ("tiled", J.Bool li.Compile.li_tiled);
             ( "tile",
               match li.Compile.li_tile with
               | Some t -> J.Str (Arch.Tile.to_string t)
               | None -> J.Null );
           ]
          @ counters_json c))
      artifact.Compile.layers report.Sim.Machine.per_step
  in
  let totals = report.Sim.Machine.totals in
  let e = Sim.Energy.of_report Sim.Energy.diana_defaults report in
  J.Obj
    ([
      ( "platform",
        J.Obj
          [
            ("name", J.Str platform.Arch.Platform.platform_name);
            ("freq_mhz", J.Int platform.Arch.Platform.freq_mhz);
            ( "accels",
              J.List
                (List.map
                   (fun (a : Arch.Accel.t) -> J.Str a.Arch.Accel.accel_name)
                   platform.Arch.Platform.accels) );
          ] );
      ( "config",
        J.Obj
          [
            ( "memory_strategy",
              J.Str
                (match cfg.Compile.memory_strategy with
                | Dory.Memplan.Reuse -> "reuse"
                | Dory.Memplan.No_reuse -> "no_reuse") );
            ("double_buffer", J.Bool cfg.Compile.double_buffer);
            ("pe_heuristics", J.Bool cfg.Compile.use_pe_heuristics);
            ("dma_heuristic", J.Bool cfg.Compile.use_dma_heuristic);
            ( "autotune_budget",
              match cfg.Compile.autotune_budget with
              | None -> J.Null
              | Some b -> J.Int b );
            ("tuning_trials", J.Int artifact.Compile.tuning_trials);
          ] );
      ( "totals",
        J.Obj
          (counters_json totals
          @ [
              ( "latency_ms",
                J.Float (Compile.latency_ms cfg totals.Sim.Counters.wall) );
              ( "peak_latency_ms",
                J.Float (Compile.latency_ms cfg (Compile.peak_cycles report)) );
            ]) );
      (* Per-solve search totals: these are identical whether solves ran
         sequentially, on a pool, or were replayed from the persistent
         store, so the report JSON stays byte-identical across engine
         settings. *)
      ( "solver",
        J.Obj
          [
            ("explored", J.Int artifact.Compile.solver.Compile.ss_explored);
            ("infeasible", J.Int artifact.Compile.solver.Compile.ss_infeasible);
            ("pruned", J.Int artifact.Compile.solver.Compile.ss_pruned);
          ] );
      ( "plan",
        let ps = Sim.Plan.stats artifact.Compile.plan in
        J.Obj
          [
            ("accel_steps", J.Int ps.Sim.Plan.accel_steps);
            ("tiles", J.Int ps.Sim.Plan.tiles);
            ("scratch_words", J.Int ps.Sim.Plan.scratch_words);
            ("image_bytes", J.Int ps.Sim.Plan.image_bytes);
          ] );
    ]
    @ demotions_json
    @ [
      ("layers", J.List layers);
      ( "binary",
        J.Obj
          [
            ( "sections",
              J.List
                (List.map
                   (fun (s : Codegen.Size.section) ->
                     J.Obj
                       [
                         ("name", J.Str s.Codegen.Size.section_name);
                         ("bytes", J.Int s.Codegen.Size.bytes);
                       ])
                   artifact.Compile.size.Codegen.Size.sections) );
            ("total_bytes", J.Int artifact.Compile.size.Codegen.Size.total_bytes);
          ] );
      ( "l2",
        J.Obj
          [
            ("static_bytes", J.Int artifact.Compile.l2_static_bytes);
            ("arena_bytes", J.Int artifact.Compile.l2_arena_bytes);
            ( "activation_peak_bytes",
              J.Int artifact.Compile.program.Sim.Program.l2_activation_peak );
          ] );
      ( "energy_uj",
        J.Obj
          [
            ("cpu", J.Float e.Sim.Energy.cpu_uj);
            ("accel", J.Float e.Sim.Energy.accel_uj);
            ("weight_load", J.Float e.Sim.Energy.weight_load_uj);
            ("dma", J.Float e.Sim.Energy.dma_uj);
            ("idle", J.Float e.Sim.Energy.idle_uj);
            ("total", J.Float e.Sim.Energy.total_uj);
          ] );
    ])

let to_json artifact report = J.to_string (to_json_value artifact report)

let to_markdown (artifact : Compile.artifact) (report : Sim.Machine.report) =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  let cfg = artifact.Compile.cfg in
  let platform = cfg.Compile.platform in
  add "# HTVM deployment report\n\n";
  add "- platform: **%s** @ %d MHz (accelerators: %s)\n"
    platform.Arch.Platform.platform_name platform.Arch.Platform.freq_mhz
    (match platform.Arch.Platform.accels with
    | [] -> "none"
    | accels ->
        String.concat ", " (List.map (fun a -> a.Arch.Accel.accel_name) accels));
  add "- memory plan: %s; double buffering: %b; heuristics: pe=%b dma=%b\n"
    (match cfg.Compile.memory_strategy with
    | Dory.Memplan.Reuse -> "liveness reuse"
    | Dory.Memplan.No_reuse -> "no reuse (TVM baseline)")
    cfg.Compile.double_buffer cfg.Compile.use_pe_heuristics cfg.Compile.use_dma_heuristic;
  (match cfg.Compile.autotune_budget with
  | None -> add "- autotuning: off (fully ahead-of-time)\n"
  | Some b ->
      add "- autotuning: on (budget %d, %d device trials spent)\n" b
        artifact.Compile.tuning_trials);
  let sv = artifact.Compile.solver in
  add "- tiling search: %d candidates explored (%d infeasible), %d pruned\n"
    sv.Compile.ss_explored sv.Compile.ss_infeasible sv.Compile.ss_pruned;
  let ps = Sim.Plan.stats artifact.Compile.plan in
  add
    "- execution plan: %d accelerator step(s), %d tile instance(s), %d scratch \
     words, %d B weight image\n"
    ps.Sim.Plan.accel_steps ps.Sim.Plan.tiles ps.Sim.Plan.scratch_words
    ps.Sim.Plan.image_bytes;
  (match artifact.Compile.demotions with
  | [] -> ()
  | ds ->
      add "\n## Demotions\n\n";
      List.iter
        (fun (d : Compile.demotion) ->
          add "- %s: **%s -> %s** (%s)\n" d.Compile.d_layer d.Compile.d_from
            d.Compile.d_to
            (Compile.demotion_reason_to_string d.Compile.d_reason))
        ds);
  let full = Compile.full_cycles report and peak = Compile.peak_cycles report in
  add "\n## Latency\n\n";
  add "- full kernel calls: **%.3f ms** (%d cycles)\n" (Compile.latency_ms cfg full) full;
  add "- accelerator peak + CPU: %.3f ms (%d cycles)\n" (Compile.latency_ms cfg peak) peak;
  let t = report.Sim.Machine.totals in
  if
    t.Sim.Counters.faults_detected > 0
    || t.Sim.Counters.faults_silent > 0
    || t.Sim.Counters.retries > 0
    || t.Sim.Counters.retry_cycles > 0
    || t.Sim.Counters.fault_stall > 0
  then
    add
      "- faults: %d detected, %d silent; %d retry(ies) costing %d cycles, %d \
       stall cycles\n"
      t.Sim.Counters.faults_detected t.Sim.Counters.faults_silent
      t.Sim.Counters.retries t.Sim.Counters.retry_cycles
      t.Sim.Counters.fault_stall;
  add "\n## Steps\n\n";
  let rows =
    List.map2
      (fun (li : Compile.layer_info) (name, (c : Sim.Counters.t)) ->
        ignore name;
        [ string_of_int li.Compile.li_index;
          li.Compile.li_target;
          li.Compile.li_desc
          ^ (match li.Compile.li_tile with
            | Some t when li.Compile.li_tiled -> " " ^ Arch.Tile.to_string t
            | _ -> "");
          string_of_int c.Sim.Counters.wall;
          string_of_int (Sim.Counters.peak c);
          string_of_int (c.Sim.Counters.dma_in + c.Sim.Counters.dma_out) ])
      artifact.Compile.layers report.Sim.Machine.per_step
  in
  Buffer.add_string buf
    (Util.Table.render_markdown
       ~header:[ "#"; "target"; "kernel"; "wall"; "accel peak"; "dma" ]
       rows);
  add "\n## Binary size\n\n";
  Buffer.add_string buf
    (Util.Table.render_markdown ~header:[ "section"; "bytes" ]
       (List.map
          (fun (s : Codegen.Size.section) ->
            [ s.Codegen.Size.section_name; string_of_int s.Codegen.Size.bytes ])
          artifact.Compile.size.Codegen.Size.sections));
  add "\ntotal: **%.1f kB**\n" (Codegen.Size.total_kb artifact.Compile.size);
  add "\n## L2 memory\n\n";
  add "- resident weights: %d B\n" artifact.Compile.l2_static_bytes;
  add "- activation arena: %d B (peak use %d B)\n" artifact.Compile.l2_arena_bytes
    artifact.Compile.program.Sim.Program.l2_activation_peak;
  add "\n## Energy (modeled)\n\n";
  add "%s\n"
    (Format.asprintf "%a" Sim.Energy.pp
       (Sim.Energy.of_report Sim.Energy.diana_defaults report));
  Buffer.contents buf
