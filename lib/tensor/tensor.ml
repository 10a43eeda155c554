module Dtype = Dtype

type t = { dtype : Dtype.t; shape : int array; data : int array }

let check_shape shape =
  if Array.exists (fun d -> d <= 0) shape then
    invalid_arg "Tensor: dimensions must be positive"

let product shape = Array.fold_left ( * ) 1 shape

let create dtype shape =
  check_shape shape;
  { dtype; shape = Array.copy shape; data = Array.make (product shape) 0 }

let check_value dtype v =
  if not (Dtype.in_range dtype v) then
    invalid_arg
      (Printf.sprintf "Tensor: value %d out of range for %s" v (Dtype.to_string dtype))

let of_array dtype shape data =
  check_shape shape;
  if Array.length data <> product shape then
    invalid_arg "Tensor.of_array: data length does not match shape";
  Array.iter (check_value dtype) data;
  { dtype; shape = Array.copy shape; data = Array.copy data }

let scalar dtype v =
  check_value dtype v;
  { dtype; shape = [||]; data = [| v |] }

let dtype t = t.dtype
let shape t = Array.copy t.shape
let rank t = Array.length t.shape
let numel t = Array.length t.data

let dim t i =
  if i < 0 || i >= Array.length t.shape then invalid_arg "Tensor.dim: axis out of bounds";
  t.shape.(i)

let sim_bytes t = numel t * Dtype.sim_bytes t.dtype
let packed_bytes t = Util.Ints.ceil_div (numel t * Dtype.packed_bits t.dtype) 8

let flat_index t idx =
  let n = Array.length t.shape in
  if Array.length idx <> n then invalid_arg "Tensor: index rank mismatch";
  let off = ref 0 in
  for i = 0 to n - 1 do
    let v = idx.(i) in
    if v < 0 || v >= t.shape.(i) then invalid_arg "Tensor: index out of bounds";
    off := (!off * t.shape.(i)) + v
  done;
  !off

let get t idx = t.data.(flat_index t idx)

let set t idx v =
  check_value t.dtype v;
  t.data.(flat_index t idx) <- v

let get_flat t i = t.data.(i)

let set_flat t i v =
  check_value t.dtype v;
  t.data.(i) <- v

let unsafe_data t = t.data

let fill t v =
  check_value t.dtype v;
  Array.fill t.data 0 (Array.length t.data) v

let reshape t shape =
  check_shape shape;
  if product shape <> numel t then invalid_arg "Tensor.reshape: element count mismatch";
  { t with shape = Array.copy shape }

let cast dtype t =
  { dtype; shape = Array.copy t.shape; data = Array.map (Dtype.clamp dtype) t.data }

let map f t =
  let data = Array.map f t.data in
  Array.iter (check_value t.dtype) data;
  { t with shape = Array.copy t.shape; data }

let map2 dtype f a b =
  if a.shape <> b.shape then invalid_arg "Tensor.map2: shape mismatch";
  let data = Array.map2 f a.data b.data in
  Array.iter (check_value dtype) data;
  { dtype; shape = Array.copy a.shape; data }

let iteri_flat f t = Array.iteri f t.data
let fold f acc t = Array.fold_left f acc t.data

let equal a b = Dtype.equal a.dtype b.dtype && a.shape = b.shape && a.data = b.data

let digest t =
  let b = Buffer.create (16 + (Array.length t.data * 4)) in
  Buffer.add_string b (Dtype.to_string t.dtype);
  Buffer.add_char b '|';
  Array.iter
    (fun d ->
      Buffer.add_string b (string_of_int d);
      Buffer.add_char b 'x')
    t.shape;
  Buffer.add_char b '|';
  Array.iter
    (fun v ->
      Buffer.add_string b (string_of_int v);
      Buffer.add_char b ',')
    t.data;
  Digest.to_hex (Digest.string (Buffer.contents b))

let random rng dtype shape =
  check_shape shape;
  let draw () =
    match (dtype : Dtype.t) with
    | Ternary -> Util.Rng.ternary rng
    | I8 -> Util.Rng.int8 rng
    | d -> Util.Rng.int_in rng (Dtype.min_value d) (Dtype.max_value d)
  in
  { dtype; shape = Array.copy shape; data = Array.init (product shape) (fun _ -> draw ()) }

let max_abs_diff a b =
  if a.shape <> b.shape then invalid_arg "Tensor.max_abs_diff: shape mismatch";
  let worst = ref 0 in
  Array.iteri (fun i v -> worst := max !worst (abs (v - b.data.(i)))) a.data;
  !worst

let pp fmt t =
  let dims = Array.to_list t.shape |> List.map string_of_int |> String.concat "x" in
  let digest = Array.fold_left (fun h v -> (h * 31) + v) 17 t.data land 0xFFFFFF in
  Format.fprintf fmt "tensor<%s>[%s]#%06x" (Dtype.to_string t.dtype)
    (if dims = "" then "scalar" else dims)
    digest

let to_string t = Format.asprintf "%a" pp t
