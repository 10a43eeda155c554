(* Structured tracing for the compiler and the simulator.

   A [t] is a collecting sink: spans (compile-time phases, timed with a
   monotone process clock in microseconds), intervals (simulated-time
   engine activity, timestamped in cycles by the caller) and counter
   samples all land in one event list. Every entry point takes a
   [t option]; [None] is the null sink and every recording function is a
   no-op on it, so instrumented code paths cost nothing when tracing is
   off. Exporters turn the collected events into a Chrome trace-event
   JSON (loadable in Perfetto; one track per engine) or a compact text
   summary. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  (* Shortest decimal form that parses back to the same float: most
     values fit %.12g; the rare ones that don't escalate to %.15g and
     finally %.17g, which is always exact for a binary64. *)
  let float_repr f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else if not (Float.is_finite f) then "null"
    else
      let s = Printf.sprintf "%.12g" f in
      if float_of_string s = f then s
      else
        let s = Printf.sprintf "%.15g" f in
        if float_of_string s = f then s else Printf.sprintf "%.17g" f

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            write buf x)
          xs;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\":";
            write buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    write buf v;
    Buffer.contents buf
end

type kind = Span | Instant | Counter

type event = {
  ev_name : string;
  ev_cat : string;
  ev_track : string;
  ev_ts : int;   (* microseconds for compile spans, cycles for sim intervals *)
  ev_dur : int;  (* 0 for instants and counter samples *)
  ev_kind : kind;
  ev_args : (string * Json.t) list;
}

type t = {
  mutable events : event list; (* newest first *)
  mutable open_spans : (string * string * string * (string * Json.t) list * int) list;
  mutable clock : int; (* strictly monotone process clock for spans *)
}

let create () = { events = []; open_spans = []; clock = 0 }
let enabled trace = Option.is_some trace

(* Strictly increasing: ties in [Sys.time] still order begin < end. *)
let now t =
  let wall = int_of_float (Sys.time () *. 1e6) in
  let ts = if wall > t.clock then wall else t.clock + 1 in
  t.clock <- ts;
  ts

let record t ev = t.events <- ev :: t.events

let span trace ?(track = "compiler") ?(cat = "compile") ?(args = []) name f =
  match trace with
  | None -> f ()
  | Some t ->
      t.open_spans <- (name, track, cat, args, now t) :: t.open_spans;
      Fun.protect
        ~finally:(fun () ->
          match t.open_spans with
          | (n, tr, c, a, t0) :: rest ->
              t.open_spans <- rest;
              let te = now t in
              record t
                {
                  ev_name = n;
                  ev_cat = c;
                  ev_track = tr;
                  ev_ts = t0;
                  ev_dur = te - t0;
                  ev_kind = Span;
                  ev_args = a;
                }
          | [] -> ())
        f

let event trace ?(track = "compiler") ?(cat = "compile") ?(args = []) name =
  match trace with
  | None -> ()
  | Some t ->
      record t
        {
          ev_name = name;
          ev_cat = cat;
          ev_track = track;
          ev_ts = now t;
          ev_dur = 0;
          ev_kind = Instant;
          ev_args = args;
        }

let interval trace ~track ?(cat = "sim") ?(args = []) ~ts ~dur name =
  match trace with
  | None -> ()
  | Some t ->
      record t
        {
          ev_name = name;
          ev_cat = cat;
          ev_track = track;
          ev_ts = ts;
          ev_dur = dur;
          ev_kind = Span;
          ev_args = args;
        }

let counter trace ~track ?(cat = "sim") ~ts ~value name =
  match trace with
  | None -> ()
  | Some t ->
      record t
        {
          ev_name = name;
          ev_cat = cat;
          ev_track = track;
          ev_ts = ts;
          ev_dur = 0;
          ev_kind = Counter;
          ev_args = [ ("value", Json.Int value) ];
        }

let events t = List.rev t.events

(* Emission order interleaves tracks and closes parents after children;
   exporters present a time-sorted view (parents before children at equal
   start, via the longer duration). *)
let sorted t =
  List.stable_sort
    (fun a b ->
      match compare a.ev_ts b.ev_ts with 0 -> compare b.ev_dur a.ev_dur | c -> c)
    (events t)

let tracks t =
  List.fold_left
    (fun acc e -> if List.mem e.ev_track acc then acc else acc @ [ e.ev_track ])
    [] (sorted t)

(* --- Chrome trace-event JSON (Perfetto-loadable) ----------------------- *)

let to_chrome_json t =
  let track_ids = List.mapi (fun i tr -> (tr, i)) (tracks t) in
  let meta =
    List.map
      (fun (tr, pid) ->
        Json.Obj
          [
            ("name", Json.Str "process_name");
            ("ph", Json.Str "M");
            ("pid", Json.Int pid);
            ("tid", Json.Int 0);
            ("args", Json.Obj [ ("name", Json.Str tr) ]);
          ])
      track_ids
  in
  let ev_json e =
    let pid = List.assoc e.ev_track track_ids in
    let common =
      [
        ("name", Json.Str e.ev_name);
        ("cat", Json.Str e.ev_cat);
        ("pid", Json.Int pid);
        ("tid", Json.Int 0);
        ("ts", Json.Int e.ev_ts);
      ]
    in
    match e.ev_kind with
    | Span ->
        Json.Obj
          (common
          @ [ ("ph", Json.Str "X"); ("dur", Json.Int e.ev_dur);
              ("args", Json.Obj e.ev_args) ])
    | Instant ->
        Json.Obj
          (common @ [ ("ph", Json.Str "i"); ("s", Json.Str "t");
                      ("args", Json.Obj e.ev_args) ])
    | Counter -> Json.Obj (common @ [ ("ph", Json.Str "C"); ("args", Json.Obj e.ev_args) ])
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (meta @ List.map ev_json (sorted t)));
         ("displayTimeUnit", Json.Str "ms");
       ])

(* --- Compact text summary ---------------------------------------------- *)

let summary t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun track ->
      let rows = Hashtbl.create 16 in
      let order = ref [] in
      List.iter
        (fun e ->
          if e.ev_track = track && e.ev_kind = Span then begin
            let n, d =
              match Hashtbl.find_opt rows e.ev_name with
              | Some (n, d) -> (n, d)
              | None ->
                  order := e.ev_name :: !order;
                  (0, 0)
            in
            Hashtbl.replace rows e.ev_name (n + 1, d + e.ev_dur)
          end)
        (events t);
      if !order <> [] then begin
        Buffer.add_string buf (Printf.sprintf "[%s]\n" track);
        List.iter
          (fun name ->
            let n, d = Hashtbl.find rows name in
            Buffer.add_string buf (Printf.sprintf "  %-40s %3d x  %10d\n" name n d))
          (List.rev !order)
      end)
    (tracks t);
  Buffer.contents buf
