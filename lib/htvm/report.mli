(** Human-readable deployment reports.

    Renders everything a deployment engineer asks about an artifact — the
    dispatch decisions, tiling, per-step cycle breakdown, latency,
    binary-size sections, L2 memory plan and estimated energy — as one
    markdown document ([htvmc report] prints it). *)

val to_markdown : Compile.artifact -> Sim.Machine.report -> string
(** The energy section uses {!Sim.Energy.diana_defaults}. *)

val to_json : Compile.artifact -> Sim.Machine.report -> string
(** The machine-readable report as a compact JSON document: platform,
    config, totals (cycles per component, DMA bytes, stall, utilization,
    latency), one object per layer, binary-size sections, L2 memory plan
    and modeled energy. The schema is documented in DESIGN.md. *)
