(* Shared helpers for the test suites. *)

let rng () = Util.Rng.create 0x5eed

let check_tensor msg expected actual =
  if not (Tensor.equal expected actual) then
    if Tensor.shape expected <> Tensor.shape actual then
      Alcotest.failf "%s: shape mismatch: expected %s, got %s" msg
        (Tensor.to_string expected) (Tensor.to_string actual)
    else
      Alcotest.failf "%s: expected %s, got %s (max abs diff %d)" msg
        (Tensor.to_string expected) (Tensor.to_string actual)
        (Tensor.max_abs_diff expected actual)

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  n = 0 || go 0

(* The deterministic prefix of a Prometheus metrics dump: every line
   before the first [# track sched ...] or [# track wall ...] marker, the
   section whose bytes must not depend on fleet shape or job count. *)
let cycles_section dump =
  let marker line =
    String.starts_with ~prefix:"# track sched " line
    || String.starts_with ~prefix:"# track wall " line
  in
  let rec keep = function
    | [] -> []
    | line :: _ when marker line -> []
    | line :: rest -> line :: keep rest
  in
  String.concat "\n" (keep (String.split_on_char '\n' dump)) ^ "\n"

(* Every match of a pattern in the graph, ascending by root id. *)
let find_all g pat =
  List.filter_map (fun id -> Byoc.Pattern.matches g pat ~at:id) (Ir.Graph.node_ids g)

(* Offloaded and host segments of a partition plan. *)
let offload_count (plan : Byoc.Partition.plan) =
  List.length
    (List.filter
       (function Byoc.Partition.Offload _ -> true | Byoc.Partition.Host _ -> false)
       plan.Byoc.Partition.segments)

let host_count (plan : Byoc.Partition.plan) =
  List.length plan.Byoc.Partition.segments - offload_count plan

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick (QCheck.Test.make ~count ~name gen prop)

(* Sorted by group, then key: starts never decrease within a group. *)
let monotone_starts triples =
  let rec go = function
    | (g, _, s) :: ((g', _, s') :: _ as rest) -> (g <> g' || s <= s') && go rest
    | _ -> true
  in
  go (List.sort compare triples)

(* Observed-plane time order of an open-loop serving run, over its served
   requests as [(instance, batch, window, start)]: on each instance, batch
   start times never decrease as the window index grows, and no request
   starts before its window closes. *)
let served_in_time_order ~window served =
  let batch_starts = Hashtbl.create 16 in
  List.iter
    (fun (inst, b, w, start) ->
      let first =
        match Hashtbl.find_opt batch_starts b with
        | Some (_, _, s) -> min s start
        | None -> start
      in
      Hashtbl.replace batch_starts b (inst, w, first))
    served;
  monotone_starts (Hashtbl.fold (fun _ b acc -> b :: acc) batch_starts [])
  && List.for_all (fun (_, _, w, start) -> start >= (w + 1) * window) served

(* QCheck generator for small activation tensors [|c;h;w|] of a dtype. *)
let small_chw dtype =
  let open QCheck.Gen in
  let dim = int_range 1 6 in
  triple dim dim dim >>= fun (c, h, w) ->
  int >|= fun seed ->
  Tensor.random (Util.Rng.create seed) dtype [| c; h; w |]

let arbitrary_chw dtype =
  QCheck.make ~print:Tensor.to_string (small_chw dtype)
