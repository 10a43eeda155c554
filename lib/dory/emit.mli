(** DORY-style C source emission.

    Renders a tiled schedule as the C driver function DORY would generate:
    weight-load calls, a tile loop with explicit DMA in/out transfers and
    accelerator invocations, using double-buffered L1 halves when enabled.
    The text is a faithful, inspectable artifact of the compilation (the
    simulator executes the schedule structure itself, so the two cannot
    drift apart). *)

val emit_network : (int * Schedule.t) list -> string
(** One translation unit: a driver function [htvm_layer_<i>] per indexed
    schedule, then a network run function calling each layer in order. *)
