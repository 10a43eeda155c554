(* Fault plans: a deterministic description of what to break, where and
   when (see plan.mli). A plan is pure data; all randomness is deferred
   to the runtime {!Session}, seeded by [seed], so a plan string plus the
   event order of one simulation replays an injection campaign exactly. *)

type site =
  | Dma_in
  | Dma_out
  | Weight_load
  | Compute of string option
  | L1
  | L2

type trigger = Always | Nth of int | Every of int | Prob of float
type kind = Flip of int | Drop | Stall of int
type rule = { site : site; trigger : trigger; kind : kind }
type t = { seed : int; rules : rule list }

let empty = { seed = 0; rules = [] }
let is_empty t = t.rules = []

(* A rule's site matches a concrete event site. [Compute None] is the
   wildcard over engines; the other constructors match exactly. *)
let site_matches ~rule ~event =
  match (rule, event) with
  | Compute None, Compute _ -> true
  | Compute (Some a), Compute (Some b) -> a = b
  | (Dma_in | Dma_out | Weight_load | L1 | L2), _ -> rule = event
  | Compute _, _ -> false

let site_label = function
  | Dma_in -> "dma_in"
  | Dma_out -> "dma_out"
  | Weight_load -> "wload"
  | Compute None -> "compute"
  | Compute (Some a) -> Printf.sprintf "compute(%s)" a
  | L1 -> "l1"
  | L2 -> "l2"

let trigger_to_string = function
  | Always -> "always"
  | Nth n -> Printf.sprintf "nth=%d" n
  | Every n -> Printf.sprintf "every=%d" n
  | Prob p -> Printf.sprintf "p=%g" p

let kind_to_string = function
  | Flip 1 -> "flip"
  | Flip n -> Printf.sprintf "flip=%d" n
  | Drop -> "drop"
  | Stall c -> Printf.sprintf "stall=%d" c

let rule_to_string r =
  Printf.sprintf "%s@%s:%s" (site_label r.site) (trigger_to_string r.trigger)
    (kind_to_string r.kind)

let to_string t =
  if is_empty t then "none"
  else
    String.concat ","
      (Printf.sprintf "seed=%d" t.seed :: List.map rule_to_string t.rules)

(* --- parsing ------------------------------------------------------------ *)

let ( let* ) = Result.bind

let parse_site s =
  match s with
  | "dma_in" -> Ok Dma_in
  | "dma_out" -> Ok Dma_out
  | "wload" -> Ok Weight_load
  | "compute" -> Ok (Compute None)
  | "l1" -> Ok L1
  | "l2" -> Ok L2
  | _ ->
      let n = String.length s in
      if n > 9 && String.sub s 0 8 = "compute(" && s.[n - 1] = ')' then
        Ok (Compute (Some (String.sub s 8 (n - 9))))
      else Error (Printf.sprintf "unknown fault site %S" s)

let pos_int_of ~what s =
  match int_of_string_opt s with
  | Some n when n >= 1 -> Ok n
  | _ -> Error (Printf.sprintf "%s wants a positive integer, got %S" what s)

let parse_trigger s =
  match String.index_opt s '=' with
  | None ->
      if s = "always" then Ok Always
      else Error (Printf.sprintf "unknown fault trigger %S" s)
  | Some i -> (
      let k = String.sub s 0 i and v = String.sub s (i + 1) (String.length s - i - 1) in
      match k with
      | "nth" ->
          let* n = pos_int_of ~what:"nth" v in
          Ok (Nth n)
      | "every" ->
          let* n = pos_int_of ~what:"every" v in
          Ok (Every n)
      | "p" -> (
          match float_of_string_opt v with
          | Some p when p >= 0.0 && p <= 1.0 -> Ok (Prob p)
          | _ -> Error (Printf.sprintf "p wants a probability in [0,1], got %S" v))
      | _ -> Error (Printf.sprintf "unknown fault trigger %S" s))

let parse_kind s =
  match String.index_opt s '=' with
  | None -> (
      match s with
      | "flip" -> Ok (Flip 1)
      | "drop" -> Ok Drop
      | _ -> Error (Printf.sprintf "unknown fault kind %S" s))
  | Some i -> (
      let k = String.sub s 0 i and v = String.sub s (i + 1) (String.length s - i - 1) in
      match k with
      | "flip" ->
          let* n = pos_int_of ~what:"flip" v in
          Ok (Flip n)
      | "stall" ->
          let* n = pos_int_of ~what:"stall" v in
          Ok (Stall n)
      | _ -> Error (Printf.sprintf "unknown fault kind %S" s))

let parse_rule s =
  match String.index_opt s '@' with
  | None -> Error (Printf.sprintf "rule %S: expected site@trigger:kind" s)
  | Some at -> (
      let site_s = String.sub s 0 at in
      let rest = String.sub s (at + 1) (String.length s - at - 1) in
      match String.index_opt rest ':' with
      | None -> Error (Printf.sprintf "rule %S: expected site@trigger:kind" s)
      | Some colon ->
          let trig_s = String.sub rest 0 colon in
          let kind_s = String.sub rest (colon + 1) (String.length rest - colon - 1) in
          let* site = parse_site site_s in
          let* trigger = parse_trigger trig_s in
          let* kind = parse_kind kind_s in
          match (site, kind) with
          | (L1 | L2), Drop ->
              Error
                (Printf.sprintf
                   "rule %S: drop needs a transfer or compute site; l1 and l2 \
                    take flip or stall"
                   s)
          | _ -> Ok { site; trigger; kind })

(* Elements are separated by commas or any whitespace (so one-rule-per-
   line fault files concatenate naturally); [#] starts a line comment. *)
let tokenize s =
  String.split_on_char '\n' s
  |> List.map (fun line ->
         match String.index_opt line '#' with
         | Some i -> String.sub line 0 i
         | None -> line)
  |> String.concat " "
  |> String.map (function ',' | '\t' | '\r' -> ' ' | c -> c)
  |> String.split_on_char ' '
  |> List.filter (fun tok -> tok <> "")

let of_string s =
  let toks = tokenize s in
  if toks = [] || toks = [ "none" ] then Ok empty
  else
    let rec go seed rules = function
      | [] -> Ok { seed; rules = List.rev rules }
      | tok :: rest ->
          if String.starts_with ~prefix:"seed=" tok then
            match int_of_string_opt (String.sub tok 5 (String.length tok - 5)) with
            | Some n -> go n rules rest
            | None -> Error (Printf.sprintf "bad fault seed %S" tok)
          else
            let* r = parse_rule tok in
            go seed (r :: rules) rest
    in
    go 0 [] toks

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error e -> Error e
