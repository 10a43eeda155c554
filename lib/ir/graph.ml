type id = int

type node =
  | Input of { name : string; dtype : Tensor.Dtype.t; shape : int array }
  | Const of Tensor.t
  | App of { op : Op.t; args : id list }

type t = { nodes : node array; output : id }

(* Input names become single whitespace-delimited tokens in the textual
   format (Ir.Text), so a name containing whitespace — or an empty one —
   would build a graph that cannot be serialized. Rejected here, at
   construction, rather than discovered at emit time. *)
let valid_input_name name =
  String.length name > 0
  && String.for_all (fun c -> c <> ' ' && c <> '\t' && c <> '\n' && c <> '\r') name

let node t i =
  if i < 0 || i >= Array.length t.nodes then invalid_arg "Graph.node: id out of range";
  t.nodes.(i)

let length t = Array.length t.nodes
let output t = t.output
let node_ids t = List.init (length t) (fun i -> i)

let inputs t =
  node_ids t
  |> List.filter_map (fun i ->
         match t.nodes.(i) with
         | Input { name; dtype; shape } -> Some (i, name, dtype, shape)
         | Const _ | App _ -> None)

(* Walking the users backwards and consing keeps each entry ascending; a
   user that reads a value twice meets itself at the head of the entry on
   its second argument, so it is listed once. *)
let consumer_index t =
  let index = Array.make (Array.length t.nodes) [] in
  for j = Array.length t.nodes - 1 downto 0 do
    match t.nodes.(j) with
    | App { args; _ } ->
        List.iter
          (fun a ->
            match index.(a) with
            | k :: _ when k = j -> ()
            | users -> index.(a) <- j :: users)
          args
    | Input _ | Const _ -> ()
  done;
  index

let app_count t =
  Array.fold_left
    (fun n -> function App _ -> n + 1 | Input _ | Const _ -> n)
    0 t.nodes

let validate t =
  let n = Array.length t.nodes in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  if n = 0 then err "empty graph"
  else if t.output < 0 || t.output >= n then err "output id %d out of range" t.output
  else
    let problem = ref None in
    let seen_names = Hashtbl.create 8 in
    Array.iteri
      (fun i nd ->
        if !problem = None then
          match nd with
          | Input { name; _ } ->
              if not (valid_input_name name) then
                problem :=
                  Some
                    (Printf.sprintf
                       "input name %S must be non-empty without whitespace" name)
              else if Hashtbl.mem seen_names name then
                problem := Some (Printf.sprintf "duplicate input name %S" name)
              else Hashtbl.add seen_names name ()
          | Const _ -> ()
          | App { op; args } ->
              if List.length args <> Op.arity op then
                problem :=
                  Some
                    (Printf.sprintf "node %d: %s expects %d args, got %d" i (Op.name op)
                       (Op.arity op) (List.length args))
              else
                List.iter
                  (fun a ->
                    if a < 0 || a >= i then
                      problem := Some (Printf.sprintf "node %d: argument %d not topological" i a))
                  args)
      t.nodes;
    match !problem with Some msg -> Error msg | None -> Ok ()

let pp fmt t =
  let pp_node i nd =
    match nd with
    | Input { name; dtype; shape } ->
        Format.fprintf fmt "%%%d = input %S : %s[%s]@," i name
          (Tensor.Dtype.to_string dtype)
          (Array.to_list shape |> List.map string_of_int |> String.concat "x")
    | Const c -> Format.fprintf fmt "%%%d = const %s@," i (Tensor.to_string c)
    | App { op; args } ->
        Format.fprintf fmt "%%%d = %a(%s)@," i Op.pp op
          (List.map (Printf.sprintf "%%%d") args |> String.concat ", ")
  in
  Format.fprintf fmt "@[<v>";
  Array.iteri pp_node t.nodes;
  Format.fprintf fmt "output %%%d@]" t.output

let to_string t = Format.asprintf "%a" pp t

module Builder = struct
  type t = { mutable rev_nodes : node list; mutable count : int }

  let create () = { rev_nodes = []; count = 0 }

  let push b nd =
    b.rev_nodes <- nd :: b.rev_nodes;
    b.count <- b.count + 1;
    b.count - 1

  let input b ~name dtype shape =
    if not (valid_input_name name) then
      invalid_arg
        (Printf.sprintf
           "Builder.input: invalid input name %S (must be non-empty without \
            whitespace)"
           name);
    push b (Input { name; dtype; shape = Array.copy shape })
  let const b tensor = push b (Const tensor)

  let app b op args =
    if List.length args <> Op.arity op then
      invalid_arg (Printf.sprintf "Builder.app: %s arity mismatch" (Op.name op));
    List.iter
      (fun a ->
        if a < 0 || a >= b.count then invalid_arg "Builder.app: argument not yet defined")
      args;
    push b (App { op; args })

  let conv2d b ?(stride = (1, 1)) ?(padding = (0, 0)) ?(groups = 1) data ~weights =
    app b (Op.Conv2d { stride; padding; groups }) [ data; weights ]

  let dense b data ~weights = app b Op.Dense [ data; weights ]
  let bias_add b data ~bias = app b Op.Bias_add [ data; bias ]

  let requantize b ?(relu = false) ~shift ~out_dtype data =
    let shift_const = const b (Tensor.scalar Tensor.Dtype.I32 shift) in
    let shifted = app b Op.Right_shift [ data; shift_const ] in
    let lo = if relu then 0 else Tensor.Dtype.min_value out_dtype in
    let hi = Tensor.Dtype.max_value out_dtype in
    let clipped = app b (Op.Clip { lo; hi }) [ shifted ] in
    app b (Op.Cast out_dtype) [ clipped ]

  let relu b data = app b Op.Relu [ data ]
  let add b x y = app b Op.Add [ x; y ]

  let max_pool b ~pool ~stride data =
    app b (Op.Max_pool { pool; pool_stride = stride }) [ data ]

  let avg_pool b ~pool ~stride data =
    app b (Op.Avg_pool { pool; pool_stride = stride }) [ data ]

  let global_avg_pool b data = app b Op.Global_avg_pool [ data ]
  let softmax b data = app b Op.Softmax [ data ]
  let reshape b shape data = app b (Op.Reshape (Array.copy shape)) [ data ]

  let finish b ~output =
    if output < 0 || output >= b.count then invalid_arg "Builder.finish: bad output id";
    { nodes = Array.of_list (List.rev b.rev_nodes); output }
end
