(** Binary-size model (Table I's "Size (kB)" column).

    A deployed HTVM binary is: the runtime base (startup, allocator,
    drivers), the generated text section (fused CPU kernels, accelerator
    driver calls and tile loops), and the constant sections (weights and
    biases). Coarse-grained accelerator instructions need far less code
    than equivalent CPU kernels — the effect that shrinks ResNet's binary
    by 12.3% in the paper — while ternary weights pack to 2 bits but pay
    zero-padding when a spatial convolution maps to the tall IMC macro. *)

type section = { section_name : string; bytes : int }

type report = {
  sections : section list;
  total_bytes : int;
}

val report :
  size_model:Arch.Platform.size_model ->
  cpu_kernels:Fuse.kernel list ->
  accel_layers:(Ir.Layer.t * string * bool) list ->
  (* (layer, accel name, is_tiled) *)
  cpu_const_bytes:int ->
  report
(** The ["accelerator constants"] section holds each offloaded layer's
    deployed weights + bias. Ternary spatial convolutions on the analog
    array pad their rows to the full IMC macro height (paper Sec. IV-C:
    "some layer dimensions require padding the L2 memory with zeros");
    1x1 (FC-like) ternary layers pack tight. *)

val total_kb : report -> float
val pp : Format.formatter -> report -> unit
