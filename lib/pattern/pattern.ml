type t =
  | Wildcard
  | Is_constant
  | Is_op of { name : string; args : t list; preds : (Ir.Op.t -> bool) list }
  | Alt of t * t

let wildcard = Wildcard
let is_constant = Is_constant
let is_op name args = Is_op { name; args; preds = [] }

let has_attr pred = function
  | Is_op o -> Is_op { o with preds = pred :: o.preds }
  | Wildcard | Is_constant | Alt _ ->
      invalid_arg "Pattern.has_attr: expected an operator pattern"

let optional f p = Alt (f p, p)

let rec pp fmt = function
  | Wildcard -> Format.pp_print_string fmt "*"
  | Is_constant -> Format.pp_print_string fmt "const"
  | Is_op { name; args; preds } ->
      Format.fprintf fmt "%s%s(%a)" name
        (if preds = [] then "" else "{attr}")
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f ", ") pp)
        args
  | Alt (a, b) -> Format.fprintf fmt "(%a | %a)" pp a pp b

type match_result = {
  root : Ir.Graph.id;
  matched : Ir.Graph.id list;
  inputs : Ir.Graph.id list;
  consts : Ir.Graph.id list;
}

(* Accumulator threaded through the recursive match; lists are reversed. *)
type acc = { m : Ir.Graph.id list; ins : Ir.Graph.id list; cs : Ir.Graph.id list }

let rec try_match g pat id acc =
  match pat with
  | Wildcard -> Some { acc with ins = id :: acc.ins }
  | Is_constant -> (
      match Ir.Graph.node g id with
      | Ir.Graph.Const _ -> Some { acc with cs = id :: acc.cs }
      | Ir.Graph.Input _ | Ir.Graph.App _ -> None)
  | Alt (a, b) -> (
      match try_match g a id acc with
      | Some _ as r -> r
      | None -> try_match g b id acc)
  | Is_op { name; args; preds } -> (
      match Ir.Graph.node g id with
      | Ir.Graph.App { op; args = actual } when Ir.Op.name op = name ->
          if not (List.for_all (fun p -> p op) preds) then None
          else if List.length args <> List.length actual then
            invalid_arg
              (Printf.sprintf "Pattern: %s written with %d args, operator has %d" name
                 (List.length args) (List.length actual))
          else
            let rec go pats ids acc =
              match (pats, ids) with
              | [], [] -> Some acc
              | p :: pats, i :: ids -> (
                  match try_match g p i acc with
                  | Some acc -> go pats ids acc
                  | None -> None)
              | _ -> None
            in
            go args actual { acc with m = id :: acc.m }
      | Ir.Graph.App _ | Ir.Graph.Input _ | Ir.Graph.Const _ -> None)

let matches g pat ~at =
  match try_match g pat at { m = []; ins = []; cs = [] } with
  | None -> None
  | Some { m; ins; cs } ->
      Some
        {
          root = at;
          matched = List.sort_uniq compare m;
          inputs = List.rev ins;
          consts = List.rev cs;
        }
