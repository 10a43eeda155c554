module G = Ir.Graph

type target = {
  name : string;
  patterns : Pattern.t list;
  accept : Ir.Layer.t -> bool;
  priority : int;
  estimate : (Ir.Layer.t -> int) option;
}

type segment =
  | Offload of {
      target : string;
      layer : Ir.Layer.t;
      inputs : G.id list;
      output : G.id;
    }
  | Host of { id : G.id }

type plan = {
  graph : G.t;
  tys : Ir.Infer.ty array;
  segments : segment list;
}

let segment_inputs g = function
  | Offload { inputs; _ } -> List.sort_uniq compare inputs
  | Host { id } -> (
      match G.node g id with
      | G.App { args; _ } ->
          List.filter
            (fun a -> match G.node g a with G.Const _ -> false | _ -> true)
            args
          |> List.sort_uniq compare
      | G.Input _ | G.Const _ -> [])

(* A region may only be fused if every interior node (everything matched
   except the root) is consumed exclusively inside the region. *)
let interior_nodes_private consumers (m : Pattern.match_result) =
  List.for_all
    (fun id ->
      id = m.root || List.for_all (fun c -> List.mem c m.matched) consumers.(id))
    m.matched

let try_target g tys consumers claimed target ~at =
  let unclaimed (m : Pattern.match_result) =
    List.for_all (fun id -> not claimed.(id)) m.matched
  in
  let rec go = function
    | [] -> None
    | pat :: rest -> (
        match Pattern.matches g pat ~at with
        | Some m when unclaimed m && interior_nodes_private consumers m -> (
            match Extract.to_layer g tys m with
            | Ok layer when target.accept layer ->
                Some (Offload { target = target.name; layer; inputs = m.inputs; output = at }, m)
            | Ok _ | Error _ -> go rest)
        | Some _ | None -> go rest)
  in
  go target.patterns

let run g ~targets =
  let tys = Ir.Infer.infer g in
  let n = G.length g in
  let claimed = Array.make n false in
  let consumers = G.consumer_index g in
  let segments = ref [] in
  let targets = List.stable_sort (fun a b -> compare b.priority a.priority) targets in
  (* Among all targets accepting a candidate root, pick the best one: the
     lowest cost estimate when available, priority order otherwise. *)
  let pick_best candidates =
    let scored =
      List.map
        (fun (t, ((seg, _) as r)) ->
          let est =
            match (t.estimate, seg) with
            | Some f, Offload { layer; _ } -> f layer
            | _ -> max_int
          in
          (est, -t.priority, r))
        candidates
    in
    match List.sort compare scored with [] -> None | (_, _, r) :: _ -> Some r
  in
  (* Backwards pass: roots are the last op of a fused sequence, so visiting
     high ids first finds the longest fusions before their sub-patterns. *)
  for id = n - 1 downto 0 do
    if not claimed.(id) then
      match G.node g id with
      | G.Input _ | G.Const _ -> ()
      | G.App _ ->
          let candidates =
            List.filter_map
              (fun t ->
                match try_target g tys consumers claimed t ~at:id with
                | Some r -> Some (t, r)
                | None -> None)
              targets
          in
          (match pick_best candidates with
          | Some (seg, m) ->
              List.iter (fun i -> claimed.(i) <- true) m.Pattern.matched;
              segments := (id, seg) :: !segments
          | None -> ())
  done;
  (* Remaining operator applications run on the host. *)
  List.iter
    (fun id ->
      match G.node g id with
      | G.App _ when not claimed.(id) -> segments := (id, Host { id }) :: !segments
      | _ -> ())
    (G.node_ids g);
  let segments =
    List.sort (fun (a, _) (b, _) -> compare a b) !segments |> List.map snd
  in
  { graph = g; tys; segments }

let pp fmt plan =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun seg ->
      match seg with
      | Offload { target; layer; output; _ } ->
          Format.fprintf fmt "%%%d <- [%s] %s@," output target (Ir.Layer.describe layer)
      | Host { id } -> (
          match G.node plan.graph id with
          | G.App { op; _ } -> Format.fprintf fmt "%%%d <- [cpu] %a@," id Ir.Op.pp op
          | G.Input _ | G.Const _ -> ()))
    plan.segments;
  Format.fprintf fmt "@]"
