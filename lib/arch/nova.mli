(** A second, hypothetical target platform ("NOVA") demonstrating the
    paper's portability claim (Sec. V: HTVM supports new off-the-shelf
    heterogeneous platforms given three ingredients — hardware specs +
    supported operations, utilization heuristics, and invocation costs).

    NOVA deliberately differs from DIANA on every axis that exercises a
    different code path:
    - a single 16x16 int8 systolic GEMM accelerator that unrolls C and K
      (so its alignment heuristic is on K, not on the spatial dims);
    - no dedicated weight memory: weight tiles share L1 with activations
      (DORY's original PULP-style Eq. 2 budget);
    - stride-1 3x3-or-smaller kernels only, no depthwise — strided and
      depthwise layers fall back to the host;
    - a Cortex-M-class host, 96 kB L1, 1 MB L2, narrower DMA. *)

val cpu : Cpu_model.t
val platform : Platform.t
