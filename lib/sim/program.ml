type buffer = {
  buf_id : int;
  b_dtype : Tensor.Dtype.t;
  b_shape : int array;
  l2_offset : int;
}

let buffer_bytes b =
  Array.fold_left ( * ) 1 b.b_shape * Tensor.Dtype.sim_bytes b.b_dtype

type step =
  | Accel of {
      accel_name : string;
      schedule : Dory.Schedule.t;
      ins : int list;
      out : int;
      weights_offset : int;
      bias_offset : int;
    }
  | Cpu of {
      kernel_name : string;
      nodes : Ir.Graph.id list;
      ins : (Ir.Graph.id * int) list;
      out : int;
      cycles : int;
    }

let step_name = function
  | Accel { accel_name; schedule; _ } ->
      Printf.sprintf "%s:%s" accel_name (Ir.Layer.describe schedule.Dory.Schedule.layer)
  | Cpu { kernel_name; _ } -> kernel_name

type t = {
  graph : Ir.Graph.t;
  buffers : buffer list;
  steps : step list;
  input_buffers : (string * int) list;
  output_buffer : int;
  weight_images : (int * Tensor.t) list;
  l2_activation_peak : int;
}

let buffer t id =
  match List.find_opt (fun b -> b.buf_id = id) t.buffers with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Program.buffer: unknown buffer %d" id)

let validate t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  (* One table of the ids answers both the duplicate check, as it fills,
     and every reference lookup after it. *)
  let ids = Hashtbl.create 64 in
  let duplicate =
    List.exists
      (fun b -> Hashtbl.mem ids b.buf_id || (Hashtbl.add ids b.buf_id (); false))
      t.buffers
  in
  if duplicate then err "duplicate buffer ids"
  else if List.exists (fun b -> b.l2_offset < 0) t.buffers then
    err "negative buffer offset"
  else
    let known = Hashtbl.mem ids in
    let step_ok = function
      | Accel { ins; out; _ } -> List.for_all known ins && known out
      | Cpu { ins; out; _ } -> List.for_all (fun (_, b) -> known b) ins && known out
    in
    if not (List.for_all step_ok t.steps) then err "step references unknown buffer"
    else if not (known t.output_buffer) then err "unknown output buffer"
    else if not (List.for_all (fun (_, b) -> known b) t.input_buffers) then
      err "unknown input buffer"
    else Ok ()
