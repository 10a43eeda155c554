(** Rival platforms of Table II, as calibrated host-CPU cycle models.

    The paper compares HTVM-on-DIANA against MLPerf Tiny submissions on an
    STM32L4R5 (TVM kernels, and TVM + CMSIS-NN kernels) and on GreenWaves
    GAP9 (GAPFlow), all normalized to 260 MHz. We model each rival as a
    per-MAC/per-element cycle model calibrated against the published
    latencies; the Table II bench prints both the published numbers and
    the model's estimate so the calibration error is visible. *)

val stm32_tvm : Cpu_model.t
(** Cortex-M4 running plain TVM-generated int8 kernels (no SIMD). *)

val stm32_cmsis : Cpu_model.t
(** Cortex-M4 with CMSIS-NN hand-optimized kernels. *)

val gap9_gapflow : Cpu_model.t
(** GAP9 cluster (8+1 cores + NE16) driven by GAPFlow; modeled as a very
    high-throughput "CPU" since we do not simulate its accelerator. *)

val estimate_graph_ms : Cpu_model.t -> Ir.Graph.t -> float
(** Whole-network latency in milliseconds at the normalized 260 MHz
    clock: each operator application costs its {!Cpu_model.op_cycles}
    plus one kernel-call overhead per anchor op. *)
