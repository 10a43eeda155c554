(** Canonical accelerator patterns (paper Listing 1 and Sec. IV-C).

    Each pattern ends in the requantization tail
    [cast(clip(right_shift(_, const)))] the quantized graphs carry (the
    ReLU variant is the same shape with a [\[0, max\]] clip range, so one
    pattern covers both), so a match is a complete coarse-grained
    accelerator instruction. *)

val conv2d_pattern : Pattern.t
(** Listing 1: Conv2D - BiasAdd - ReQuant - (ReLU). Weights and bias bind
    as constants. *)

val conv2d_pool_pattern : Pattern.t
(** Conv2D - BiasAdd - ReQuant - MaxPool, fusing the pooling into the
    accelerator's output stage. *)

val all : Pattern.t list
(** Patterns in matching priority order (most specific first):
    {!conv2d_pool_pattern}, {!conv2d_pattern}, Conv2D - ReQuant without
    a bias add, Dense - BiasAdd - ReQuant - (ReLU), Dense - ReQuant, and
    residual Add - ReQuant. *)
