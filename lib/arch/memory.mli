(** Memory levels and the DMA cost model.

    DIANA's RISC-V host owns a 512 kB L2; the accelerators share a 256 kB
    L1 activation memory filled by DMA (paper Fig. 3). A DMA transfer of a
    3-D tile is a sequence of contiguous row chunks, so its cost has a
    per-call setup, a per-chunk overhead (descriptor + address setup for
    every non-contiguous row) and a per-byte streaming term. The per-chunk
    term is what the paper's H_DMA heuristic (Eq. 5) reduces by preferring
    tall tiles. *)

type level = { level_name : string; size_bytes : int }

type dma = {
  setup_cycles : int;       (** fixed cost of issuing one transfer *)
  per_chunk_cycles : int;   (** cost of each non-contiguous chunk *)
  bytes_per_cycle : int;    (** streaming bandwidth *)
}

val transfer_cycles : dma -> chunks:int -> bytes:int -> int
(** Cost of one DMA call moving [bytes] in [chunks] contiguous pieces. *)

