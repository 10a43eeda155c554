(* Tests for the lib/trace subsystem: span nesting, the Chrome
   trace-event exporter, agreement between the simulated timeline and the
   counters, and the null sink's zero-impact guarantee. *)

let resnet_graph () =
  (Models.Zoo.find "resnet8").Models.Zoo.build Models.Policy.All_int8

let traced_run () =
  let g = resnet_graph () in
  let trace = Trace.create () in
  let artifact =
    Result.get_ok
      (Htvm.Compile.compile ~trace
         (Htvm.Compile.default_config Arch.Diana.digital_only)
         g)
  in
  let out, report =
    Htvm.Compile.run ~trace artifact ~inputs:(Models.Zoo.random_input g)
  in
  (trace, artifact, out, report)

(* --- (a) span nesting ---------------------------------------------------- *)

(* Span events on one track must nest: each span lies either fully inside
   or fully outside every other. Spans are visited in time order, parents
   before children at equal start (the longer duration first). *)
let well_nested t =
  let spans =
    List.stable_sort
      (fun (a : Trace.event) (b : Trace.event) ->
        match compare a.Trace.ev_ts b.Trace.ev_ts with
        | 0 -> compare b.Trace.ev_dur a.Trace.ev_dur
        | c -> c)
      (List.filter (fun (e : Trace.event) -> e.Trace.ev_kind = Trace.Span) (Trace.events t))
  in
  List.for_all
    (fun track ->
      let rec check stack = function
        | [] -> true
        | (e : Trace.event) :: rest ->
            let stack = List.filter (fun (_, fin) -> fin > e.Trace.ev_ts) stack in
            let fits =
              match stack with
              | [] -> true
              | (_, fin) :: _ -> e.Trace.ev_ts + e.Trace.ev_dur <= fin
            in
            fits && check ((e.Trace.ev_ts, e.Trace.ev_ts + e.Trace.ev_dur) :: stack) rest
      in
      check [] (List.filter (fun (e : Trace.event) -> e.Trace.ev_track = track) spans))
    (Trace.tracks t)

let test_span_nesting () =
  (* Explicit nested/sequential spans... *)
  let t = Trace.create () in
  let trace = Some t in
  Trace.span trace "outer" (fun () ->
      Trace.span trace "inner1" (fun () -> ());
      Trace.span trace "inner2" (fun () ->
          Trace.span trace "leaf" (fun () -> ())));
  Trace.span trace "after" (fun () -> ());
  Alcotest.(check bool) "explicit spans nest" true (well_nested t);
  Alcotest.(check int) "all spans recorded" 5 (List.length (Trace.events t));
  (* ...a span closes even when its body raises... *)
  (try Trace.span trace "raises" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "raising span recorded" 6 (List.length (Trace.events t));
  Alcotest.(check bool) "still nested" true (well_nested t);
  (* ...and a full compile + run trace is well-formed on every track. *)
  let trace, _, _, _ = traced_run () in
  Alcotest.(check bool) "compile+run trace nests" true (well_nested trace);
  Alcotest.(check bool) "has compiler track" true
    (List.mem "compiler" (Trace.tracks trace));
  Alcotest.(check bool) "has steps track" true
    (List.mem "steps" (Trace.tracks trace))

(* --- (b) Chrome JSON export ---------------------------------------------- *)

(* A minimal JSON reader — just enough to check the exporter emits a
   syntactically valid document without external dependencies. *)
module Json_reader = struct
  type v =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of v list
    | Obj of (string * v) list

  exception Bad of string

  let parse (s : string) =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else raise (Bad "eof") in
    let advance () = incr pos in
    let rec skip_ws () =
      if !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      then (advance (); skip_ws ())
    in
    let expect c =
      if peek () <> c then raise (Bad (Printf.sprintf "expected %c at %d" c !pos));
      advance ()
    in
    let literal word v =
      String.iter (fun c -> expect c) word;
      v
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance (); Buffer.contents buf
        | '\\' ->
            advance ();
            (match peek () with
            | 'u' ->
                advance ();
                if !pos + 4 > n then raise (Bad "bad \\u escape");
                let hex = String.sub s !pos 4 in
                String.iter
                  (fun c ->
                    match c with
                    | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
                    | _ -> raise (Bad "bad hex digit"))
                  hex;
                pos := !pos + 4;
                Buffer.add_char buf '?'
            | c -> advance (); Buffer.add_char buf c);
            go ()
        | c when Char.code c < 0x20 -> raise (Bad "raw control char in string")
        | c -> advance (); Buffer.add_char buf c; go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do advance () done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> raise (Bad ("bad number at " ^ string_of_int start))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
          advance ();
          skip_ws ();
          if peek () = '}' then (advance (); Obj [])
          else
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | ',' -> advance (); members ((k, v) :: acc)
              | '}' -> advance (); Obj (List.rev ((k, v) :: acc))
              | _ -> raise (Bad "expected , or } in object")
            in
            members []
      | '[' ->
          advance ();
          skip_ws ();
          if peek () = ']' then (advance (); Arr [])
          else
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | ',' -> advance (); elements (v :: acc)
              | ']' -> advance (); Arr (List.rev (v :: acc))
              | _ -> raise (Bad "expected , or ] in array")
            in
            elements []
      | '"' -> Str (parse_string ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage");
    v
end

let test_chrome_export () =
  let trace, _, _, _ = traced_run () in
  let json = Trace.to_chrome_json trace in
  let doc =
    try Json_reader.parse json
    with Json_reader.Bad e -> Alcotest.failf "exporter emitted invalid JSON: %s" e
  in
  let events =
    match doc with
    | Json_reader.Obj fields -> (
        match List.assoc_opt "traceEvents" fields with
        | Some (Json_reader.Arr evs) -> evs
        | _ -> Alcotest.fail "no traceEvents array")
    | _ -> Alcotest.fail "top level is not an object"
  in
  Alcotest.(check bool) "has events" true (List.length events > 0);
  (* Non-metadata events carry monotonically non-decreasing timestamps. *)
  let ts =
    List.filter_map
      (fun ev ->
        match ev with
        | Json_reader.Obj fields -> (
            match (List.assoc_opt "ph" fields, List.assoc_opt "ts" fields) with
            | Some (Json_reader.Str "M"), _ -> None
            | _, Some (Json_reader.Num t) -> Some t
            | _ -> Alcotest.fail "event without ts")
        | _ -> Alcotest.fail "event is not an object")
      events
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "timestamps monotone" true (monotone ts);
  (* Every track referenced by an event is declared by a process_name
     metadata record. *)
  let pids_of pred =
    List.filter_map
      (fun ev ->
        match ev with
        | Json_reader.Obj fields when pred fields -> (
            match List.assoc_opt "pid" fields with
            | Some (Json_reader.Num p) -> Some p
            | _ -> None)
        | _ -> None)
      events
  in
  let is_meta fields =
    List.assoc_opt "ph" fields = Some (Json_reader.Str "M")
  in
  let declared = pids_of is_meta in
  Alcotest.(check bool) "all pids declared" true
    (List.for_all (fun p -> List.mem p declared) (pids_of (fun f -> not (is_meta f))))

(* --- (c) trace agrees with Machine.report -------------------------------- *)

let test_step_totals_match_report () =
  let trace, _, _, report = traced_run () in
  let steps =
    List.filter
      (fun (e : Trace.event) -> e.Trace.ev_track = "steps" && e.Trace.ev_kind = Trace.Span)
      (Trace.events trace)
  in
  Alcotest.(check int) "one interval per step"
    (List.length report.Sim.Machine.per_step)
    (List.length steps);
  List.iter2
    (fun (name, (c : Sim.Counters.t)) (e : Trace.event) ->
      Alcotest.(check string) "step name" name e.Trace.ev_name;
      Alcotest.(check int) ("wall of " ^ name) c.Sim.Counters.wall e.Trace.ev_dur)
    report.Sim.Machine.per_step steps;
  let summed = List.fold_left (fun acc (e : Trace.event) -> acc + e.Trace.ev_dur) 0 steps in
  Alcotest.(check int) "steps track sums to wall total"
    report.Sim.Machine.totals.Sim.Counters.wall summed;
  (* Engine + DMA + host intervals account for every counted cycle. *)
  let track_sum tr =
    List.fold_left
      (fun acc (e : Trace.event) ->
        if e.Trace.ev_track = tr && e.Trace.ev_kind = Trace.Span then acc + e.Trace.ev_dur
        else acc)
      0 (Trace.events trace)
  in
  let t = report.Sim.Machine.totals in
  Alcotest.(check int) "dma track"
    (t.Sim.Counters.dma_in + t.Sim.Counters.dma_out)
    (track_sum "dma");
  Alcotest.(check int) "engine track" (Sim.Counters.peak t) (track_sum "diana_digital");
  Alcotest.(check int) "host track"
    (t.Sim.Counters.host_overhead + t.Sim.Counters.cpu_compute)
    (track_sum "host")

(* --- (d) the null sink changes nothing ----------------------------------- *)

let test_null_sink_bit_identical () =
  let g = resnet_graph () in
  let cfg = Htvm.Compile.default_config Arch.Diana.digital_only in
  let plain = Result.get_ok (Htvm.Compile.compile cfg g) in
  let trace = Trace.create () in
  let traced = Result.get_ok (Htvm.Compile.compile ~trace cfg g) in
  let inputs = Models.Zoo.random_input g in
  let out_plain, rep_plain = Htvm.Compile.run plain ~inputs in
  let out_traced, rep_traced = Htvm.Compile.run ~trace traced ~inputs in
  let out_null, rep_null = Htvm.Compile.run ?trace:None plain ~inputs in
  Helpers.check_tensor "traced output identical" out_plain out_traced;
  Helpers.check_tensor "null-sink output identical" out_plain out_null;
  let show c = Format.asprintf "%a" Sim.Counters.pp c in
  Alcotest.(check string) "null-sink counters identical"
    (show rep_plain.Sim.Machine.totals)
    (show rep_null.Sim.Machine.totals);
  Alcotest.(check string) "traced counters identical"
    (show rep_plain.Sim.Machine.totals)
    (show rep_traced.Sim.Machine.totals)

let suites =
  [ ( "trace",
      [ Alcotest.test_case "span nesting" `Quick test_span_nesting;
        Alcotest.test_case "chrome export" `Quick test_chrome_export;
        Alcotest.test_case "step totals match report" `Quick
          test_step_totals_match_report;
        Alcotest.test_case "null sink bit-identical" `Quick
          test_null_sink_bit_identical;
      ] )
  ]
