(* Greedy delta-debugging minimizer (see shrink.mli).

   Reductions are expressed as *edits* against the current graph and
   applied by rebuilding the graph from scratch through the Builder:
   constants are re-sliced and attribute-carried shapes re-derived as the
   rebuild walks the topological order, so a candidate either comes out
   well-typed or is rejected before the failure predicate ever sees it. *)

module G = Ir.Graph
module B = Ir.Graph.Builder
module C = Htvm.Compile

type outcome = {
  graph : Ir.Graph.t;
  config : Htvm.Compile.config;
  checks : int;
  accepted : int;
}

exception Reject

let numel_of = Array.fold_left ( * ) 1

(* Resize a constant to [shape], cycling through the source values so a
   shrunken weight keeps the original's value distribution. *)
let reslice t shape =
  let src_n = Tensor.numel t in
  if src_n = 0 || numel_of shape <= 0 then raise Reject;
  let t' = Tensor.create (Tensor.dtype t) shape in
  for i = 0 to numel_of shape - 1 do
    Tensor.set_flat t' i (Tensor.get_flat t (i mod src_n))
  done;
  t'

(* One candidate reduction, as a set of overrides on the original graph:
   - [e_output]: truncate the graph at an earlier application;
   - [e_redirect]: bypass an application, rerouting its consumers to one
     of its (same-typed) arguments;
   - [e_promote]: replace an application with a fresh graph input of its
     inferred type — the whole producer chain above it dies;
   - [e_input_shape]: replace an input declaration's shape;
   - [e_conv_k]: override a (non-depthwise) convolution's output-channel
     count; the weight constant is re-sliced to match. *)
type edit = {
  e_output : G.id option;
  e_redirect : (G.id * G.id) list;
  e_promote : G.id list;
  e_input_shape : (G.id * int array) list;
  e_conv_k : (G.id * int) list;
}

let no_edit =
  { e_output = None; e_redirect = []; e_promote = []; e_input_shape = []; e_conv_k = [] }

let rebuild g edit =
  try
    let n = G.length g in
    let redirect = Hashtbl.create 4 in
    List.iter (fun (a, b) -> Hashtbl.replace redirect a b) edit.e_redirect;
    let rec resolve fuel id =
      if fuel < 0 then raise Reject;
      match Hashtbl.find_opt redirect id with
      | Some id' -> resolve (fuel - 1) id'
      | None -> id
    in
    let resolve id = resolve n id in
    let out = resolve (Option.value edit.e_output ~default:(G.output g)) in
    (match G.node g out with G.App _ -> () | _ -> raise Reject);
    let promoted id = List.mem id edit.e_promote in
    let tys0 = if edit.e_promote = [] then [||] else Ir.Infer.infer g in
    (* Mark nodes reachable from the (possibly truncated) output through
       redirected arguments; promotion cuts reachability, so everything
       else — a bypassed op's private constant, a promoted value's whole
       producer chain — is dropped. *)
    let live = Array.make n false in
    let rec mark id =
      if not live.(id) then begin
        live.(id) <- true;
        if not (promoted id) then
          match G.node g id with
          | G.App { args; _ } -> List.iter (fun a -> mark (resolve a)) args
          | G.Input _ | G.Const _ -> ()
      end
    in
    mark out;
    let b = B.create () in
    let new_id = Array.make n (-1) in
    let tys : (int, Ir.Infer.ty) Hashtbl.t = Hashtbl.create n in
    let ty_of nid = Hashtbl.find tys nid in
    let push_const t =
      let id = B.const b t in
      Hashtbl.replace tys id
        { Ir.Infer.dtype = Tensor.dtype t; shape = Tensor.shape t };
      id
    in
    let const_tensor old_id =
      match G.node g old_id with G.Const t -> t | _ -> raise Reject
    in
    (* New id for an argument; constants are materialized on first use. *)
    let arg_id old_id =
      let old_id = resolve old_id in
      if new_id.(old_id) >= 0 then new_id.(old_id)
      else
        match G.node g old_id with
        | G.Const t ->
            let id = push_const t in
            new_id.(old_id) <- id;
            id
        | _ -> raise Reject
    in
    (* Push an application and type it by inferring the prefix built so
       far (Builder.finish is non-destructive). Type_error here means the
       candidate broke an operator's typing rule: rejected below. *)
    let push_app op args =
      let id = B.app b op args in
      let t = (Ir.Infer.infer (B.finish b ~output:id)).(id) in
      Hashtbl.replace tys id t;
      id
    in
    List.iter
      (fun old_id ->
        if live.(old_id) && new_id.(old_id) < 0 then
          match G.node g old_id with
          | G.Const _ -> () (* materialized lazily by its users *)
          | G.Input { name; dtype; shape } ->
              let shape =
                match List.assoc_opt old_id edit.e_input_shape with
                | Some s -> s
                | None -> shape
              in
              if Array.exists (fun d -> d <= 0) shape then raise Reject;
              let id = B.input b ~name dtype shape in
              Hashtbl.replace tys id { Ir.Infer.dtype; shape };
              new_id.(old_id) <- id
          | G.App _ when promoted old_id ->
              let t = tys0.(old_id) in
              let name = "s" ^ string_of_int old_id in
              let id = B.input b ~name t.Ir.Infer.dtype t.Ir.Infer.shape in
              Hashtbl.replace tys id t;
              new_id.(old_id) <- id
          | G.App { op; args } ->
              let id =
                match (op, args) with
                | Ir.Op.Conv2d { stride = sy, sx; padding = py, px; groups }, [ data; w ]
                  -> (
                    let d = arg_id data in
                    match (ty_of d).Ir.Infer.shape with
                    | [| c; h; wd |] ->
                        let wt = const_tensor (resolve w) in
                        let ws = Tensor.shape wt in
                        if Array.length ws <> 4 then raise Reject;
                        let fy = ws.(2) and fx = ws.(3) in
                        let dw = groups > 1 in
                        let k =
                          if dw then c
                          else
                            match List.assoc_opt old_id edit.e_conv_k with
                            | Some k -> k
                            | None -> ws.(0)
                        in
                        let oh = ((h + (2 * py) - fy) / sy) + 1
                        and ow = ((wd + (2 * px) - fx) / sx) + 1 in
                        if k <= 0 || oh <= 0 || ow <= 0
                           || h + (2 * py) < fy || wd + (2 * px) < fx
                        then raise Reject;
                        let ws' = [| k; (if dw then 1 else c); fy; fx |] in
                        let wt' = if ws' = ws then wt else reslice wt ws' in
                        push_app
                          (Ir.Op.Conv2d
                             {
                               stride = (sy, sx);
                               padding = (py, px);
                               groups = (if dw then c else 1);
                             })
                          [ d; push_const wt' ]
                    | _ -> raise Reject)
                | Ir.Op.Dense, [ data; w ] -> (
                    let d = arg_id data in
                    match (ty_of d).Ir.Infer.shape with
                    | [| features |] ->
                        let wt = const_tensor (resolve w) in
                        let ws = Tensor.shape wt in
                        if Array.length ws <> 2 then raise Reject;
                        let ws' = [| ws.(0); features |] in
                        let wt' = if ws' = ws then wt else reslice wt ws' in
                        push_app Ir.Op.Dense [ d; push_const wt' ]
                    | _ -> raise Reject)
                | Ir.Op.Bias_add, [ acc; bias ] ->
                    let a = arg_id acc in
                    let sh = (ty_of a).Ir.Infer.shape in
                    if Array.length sh = 0 then raise Reject;
                    let bt = const_tensor (resolve bias) in
                    let bt' =
                      if Tensor.shape bt = [| sh.(0) |] then bt
                      else reslice bt [| sh.(0) |]
                    in
                    push_app Ir.Op.Bias_add [ a; push_const bt' ]
                | Ir.Op.Reshape shape, [ a ] ->
                    let a = arg_id a in
                    let ne = numel_of (ty_of a).Ir.Infer.shape in
                    let shape' =
                      if numel_of shape = ne then shape
                      else if Array.length shape = 1 then [| ne |]
                      else raise Reject
                    in
                    push_app (Ir.Op.Reshape shape') [ a ]
                | op, args -> push_app op (List.map arg_id args)
              in
              new_id.(old_id) <- id)
      (G.node_ids g);
    if new_id.(out) < 0 then raise Reject;
    let g' = B.finish b ~output:new_id.(out) in
    (match G.validate g' with Ok () -> () | Error _ -> raise Reject);
    ignore (Ir.Infer.infer g');
    if G.inputs g' = [] then raise Reject;
    Some g'
  with
  | Reject | Ir.Infer.Type_error _ | Invalid_argument _ | Not_found -> None

(* ---------------------------------------------------------------- *)
(* Candidate generation.                                            *)

type cand = Edit of edit | Cfg of (C.config -> C.config)

let graph_cands g =
  let tys = Ir.Infer.infer g in
  let apps =
    List.filter (fun id -> match G.node g id with G.App _ -> true | _ -> false)
      (G.node_ids g)
  in
  (* Truncations first, smallest prefix first: the single biggest win. *)
  let truncations =
    List.filter_map
      (fun id -> if id <> G.output g then Some (Edit { no_edit with e_output = Some id }) else None)
      apps
  in
  (* Promote an interior value to a fresh input: kills the producer
     chain above it. Earliest (deepest) promotions would remove the
     least, so try latest first. *)
  let promotes =
    List.rev_map
      (fun id -> Edit { no_edit with e_promote = [ id ] })
      (List.filter (fun id -> id <> G.output g) apps)
  in
  let bypasses =
    List.concat_map
      (fun id ->
        match G.node g id with
        | G.App { args; _ } ->
            List.filter_map
              (fun a ->
                match G.node g a with
                | G.Const _ -> None
                | _ when Ir.Infer.ty_equal tys.(a) tys.(id) ->
                    Some (Edit { no_edit with e_redirect = [ (id, a) ] })
                | _ -> None)
              args
        | _ -> [])
      apps
  in
  let conv_shrinks =
    List.concat_map
      (fun id ->
        match G.node g id with
        | G.App { op = Ir.Op.Conv2d { groups = 1; _ }; args = [ _; w ] } -> (
            match G.node g w with
            | G.Const t ->
                let k = (Tensor.shape t).(0) in
                List.sort_uniq compare
                  (List.filter (fun k' -> k' >= 1 && k' < k) [ k / 2; k - 1 ])
                |> List.map (fun k' -> Edit { no_edit with e_conv_k = [ (id, k') ] })
            | _ -> [])
        | _ -> [])
      apps
  in
  let input_shrinks =
    List.concat_map
      (fun (id, _, _, shape) ->
        match shape with
        | [| c; h; w |] ->
            let cand s = Edit { no_edit with e_input_shape = [ (id, s) ] } in
            (if h > 1 || w > 1 then
               [ cand [| c; (h + 1) / 2; (w + 1) / 2 |];
                 cand [| c; max 1 (h - 1); max 1 (w - 1) |] ]
             else [])
            @ (if c > 1 then [ cand [| (c + 1) / 2; h; w |]; cand [| c - 1; h; w |] ]
               else [])
        | _ -> [])
      (G.inputs g)
  in
  truncations @ promotes @ bypasses @ conv_shrinks @ input_shrinks

let config_cands (cfg : C.config) (canon : C.config) =
  List.filter_map Fun.id
    [
      (if cfg.C.jobs <> canon.C.jobs then
         Some (Cfg (fun c -> { c with C.jobs = canon.C.jobs }))
       else None);
      (if cfg.C.autotune_budget <> canon.C.autotune_budget then
         Some (Cfg (fun c -> { c with C.autotune_budget = canon.C.autotune_budget }))
       else None);
      (if cfg.C.memory_strategy <> canon.C.memory_strategy then
         Some (Cfg (fun c -> { c with C.memory_strategy = canon.C.memory_strategy }))
       else None);
      (if cfg.C.double_buffer <> canon.C.double_buffer then
         Some (Cfg (fun c -> { c with C.double_buffer = canon.C.double_buffer }))
       else None);
      (if cfg.C.use_pe_heuristics <> canon.C.use_pe_heuristics then
         Some (Cfg (fun c -> { c with C.use_pe_heuristics = canon.C.use_pe_heuristics }))
       else None);
      (if cfg.C.use_dma_heuristic <> canon.C.use_dma_heuristic then
         Some (Cfg (fun c -> { c with C.use_dma_heuristic = canon.C.use_dma_heuristic }))
       else None);
      (if cfg.C.degraded_targets <> canon.C.degraded_targets then
         Some (Cfg (fun c -> { c with C.degraded_targets = canon.C.degraded_targets }))
       else None);
    ]

(* ---------------------------------------------------------------- *)
(* Measure and loop.                                                *)

let total_elems g =
  List.fold_left
    (fun acc id ->
      match G.node g id with
      | G.Input { shape; _ } -> acc + numel_of shape
      | G.Const t -> acc + Tensor.numel t
      | G.App _ -> acc)
    0 (G.node_ids g)

let cfg_delta (c : C.config) (d : C.config) =
  let b x = if x then 1 else 0 in
  b (c.C.memory_strategy <> d.C.memory_strategy)
  + b (c.C.double_buffer <> d.C.double_buffer)
  + b (c.C.use_pe_heuristics <> d.C.use_pe_heuristics)
  + b (c.C.use_dma_heuristic <> d.C.use_dma_heuristic)
  + b (c.C.autotune_budget <> d.C.autotune_budget)
  + b (c.C.jobs <> d.C.jobs)
  + b (c.C.degraded_targets <> d.C.degraded_targets)

let shrink ?(max_checks = 400) ~predicate cfg g =
  (* Simplification target: the stock deployment a human would debug
     with. The platform itself is never changed — an undersized L1 is
     usually part of the bug being reproduced. *)
  let canon = { (C.default_config cfg.C.platform) with C.jobs = 1 } in
  let measure cfg g = (G.app_count g, total_elems g, cfg_delta cfg canon) in
  let checks = ref 0 and accepted = ref 0 in
  let state = ref (cfg, g) in
  let still_fails cfg' g' =
    if !checks >= max_checks then false
    else begin
      incr checks;
      match predicate cfg' g' with v -> v | exception _ -> false
    end
  in
  (* One greedy pass: accept the first candidate (in the deterministic
     truncate / bypass / channel-shrink / input-shrink / config order)
     that strictly decreases the measure and still fails; restart
     candidate generation from the reduced pair. *)
  let step () =
    let cfg, g = !state in
    let m = measure cfg g in
    let try_cand = function
      | Edit e -> (
          match rebuild g e with
          | None -> false
          | Some g' ->
              measure cfg g' < m && still_fails cfg g'
              && (state := (cfg, g');
                  true))
      | Cfg f ->
          let cfg' = f cfg in
          measure cfg' g < m && still_fails cfg' g
          && (state := (cfg', g);
              true)
    in
    List.exists try_cand (graph_cands g @ config_cands cfg canon)
  in
  let progress = ref true in
  while !progress && !checks < max_checks do
    if step () then incr accepted else progress := false
  done;
  let cfg, g = !state in
  { graph = g; config = cfg; checks = !checks; accepted = !accepted }

let shrink_failure ?max_checks ?(input_seed = 0) ?faults ?retry_budget cfg g
    verdict =
  let cls = Verdict.class_of verdict in
  let predicate cfg g =
    Verdict.class_of (Verdict.run_case ~input_seed ?faults ?retry_budget cfg g)
    = cls
  in
  shrink ?max_checks ~predicate cfg g
