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
