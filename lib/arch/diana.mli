(** The DIANA SoC (Ueyoshi et al., ISSCC 2022) as used in the paper.

    - RISC-V RV32IMCF-XpulpV2 host at 260 MHz
    - digital accelerator: 16x16 PE array, 256 8-bit MACs/cycle, 64 kB
      weight memory; supports (DW)Conv2D, FC, Add, with fused
      requantization/ReLU/pooling at the output stage
    - analog in-memory-compute accelerator: 1152x512 ternary SRAM macro,
      7-bit activations, 144 kB weight buffer; supports Conv2D (and
      residual add) with fused post-processing
    - 256 kB shared L1 activation memory, 512 kB L2, DMA between them.

    Cycle-model calibration targets the paper's published latencies (see
    EXPERIMENTS.md); geometry-dependent utilization follows the paper's
    heuristics: the digital array wants C and ix tiles aligned to 16
    (Eqs. 3-4) and tall tiles to coalesce DMA chunks (Eq. 5). *)

val digital : Accel.t
val analog : Accel.t
val cpu : Cpu_model.t

val platform : Platform.t
(** Full SoC with both accelerators. *)

val digital_only : Platform.t
val analog_only : Platform.t
val cpu_only : Platform.t

val imc_rows : int
(** Analog macro rows (1152): the binary-size model pads ternary spatial
    convolutions to the macro's height. *)
