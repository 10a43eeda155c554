(* Deterministic metrics registry with Prometheus/JSON/CSV exposition.

   Three instrument kinds (counter, gauge, fixed-bucket histogram) plus a
   cycle-stamped time series, each pinned to a track that states its
   determinism contract: Cycles values must be byte-identical at any
   fleet size and host parallelism, Sched values are cycle-stamped but
   schedule-dependent, Wall values are host wall-clock. Exposition
   renders tracks in that order behind `# track` markers so consumers
   (and tools/verify.sh) can cut the dump at the first non-deterministic
   marker.

   Registration order is kept and is the exposition order within a
   track; duplicate (name, labels) registration raises Invalid_argument
   because a duplicate is a plumbing bug. *)

module J = Trace.Json

type track = Cycles | Sched | Wall

let track_name = function Cycles -> "cycles" | Sched -> "sched" | Wall -> "wall"

type counter = { mutable c_total : int }
type gauge = { mutable g_value : float }

type histogram = {
  h_bounds : int array;  (* strictly increasing upper bounds *)
  h_bins : int array;  (* length = bounds + 1; last is +Inf *)
  mutable h_sum : int;
  mutable h_count : int;
}

type series = {
  se_columns : string list;
  mutable se_samples : (int * float list) list;  (* newest first *)
}

type instr =
  | I_counter of counter
  | I_gauge of gauge
  | I_hist of histogram
  | I_series of series

type meta = {
  name : string;
  track : track;
  labels : (string * string) list;  (* sorted by label name *)
  help : string;
}

type t = {
  mutable rev_instrs : (meta * instr) list;  (* newest first *)
  keys : (string, unit) Hashtbl.t;
}

let create () = { rev_instrs = []; keys = Hashtbl.create 32 }

(* --- validation -------------------------------------------------------- *)

let valid_metric_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       s

let valid_label_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let escape_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v)) labels)
      ^ "}"

let key_of name labels = name ^ render_labels labels

let register t ?(track = Cycles) ?(labels = []) ?(help = "") name instr =
  if not (valid_metric_name name) then
    invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name);
  List.iter
    (fun (k, _) ->
      if not (valid_label_name k) then
        invalid_arg (Printf.sprintf "Metrics: invalid label name %S on %s" k name))
    labels;
  let labels = List.sort (fun (a, _) (b, _) -> compare a b) labels in
  let rec dup = function
    | (a, _) :: ((b, _) :: _ as rest) -> if a = b then Some a else dup rest
    | _ -> None
  in
  (match dup labels with
  | Some l -> invalid_arg (Printf.sprintf "Metrics: duplicate label %S on %s" l name)
  | None -> ());
  let key = key_of name labels in
  if Hashtbl.mem t.keys key then
    invalid_arg (Printf.sprintf "Metrics: duplicate registration of %s" key);
  Hashtbl.add t.keys key ();
  t.rev_instrs <- ({ name; track; labels; help }, instr) :: t.rev_instrs

let counter t ?track ?labels ?help name =
  let c = { c_total = 0 } in
  register t ?track ?labels ?help name (I_counter c);
  c

let gauge t ?track ?labels ?help name =
  let g = { g_value = 0.0 } in
  register t ?track ?labels ?help name (I_gauge g);
  g

let histogram t ?track ?labels ?help ~buckets name =
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  if not (increasing buckets) then
    invalid_arg
      (Printf.sprintf "Metrics: histogram %s buckets must be strictly increasing" name);
  let h =
    {
      h_bounds = Array.of_list buckets;
      h_bins = Array.make (List.length buckets + 1) 0;
      h_sum = 0;
      h_count = 0;
    }
  in
  register t ?track ?labels ?help name (I_hist h);
  h

let series t ?track ?labels ?help ~columns name =
  if columns = [] then
    invalid_arg (Printf.sprintf "Metrics: series %s needs at least one column" name);
  if List.length (List.sort_uniq compare columns) <> List.length columns then
    invalid_arg (Printf.sprintf "Metrics: series %s has duplicate columns" name);
  List.iter
    (fun c ->
      if not (valid_metric_name c) then
        invalid_arg (Printf.sprintf "Metrics: invalid series column %S on %s" c name))
    columns;
  let s = { se_columns = columns; se_samples = [] } in
  register t ?track ?labels ?help name (I_series s);
  s

(* --- recording --------------------------------------------------------- *)

let inc c n =
  if n < 0 then invalid_arg "Metrics.inc: counters are monotone (negative amount)";
  c.c_total <- c.c_total + n

let set g v = g.g_value <- v
let set_int g v = g.g_value <- float_of_int v

let observe h v =
  let n = Array.length h.h_bounds in
  let rec bin i = if i >= n then n else if v <= h.h_bounds.(i) then i else bin (i + 1) in
  let i = bin 0 in
  h.h_bins.(i) <- h.h_bins.(i) + 1;
  h.h_sum <- h.h_sum + v;
  h.h_count <- h.h_count + 1

let sample s ~ts values =
  if List.length values <> List.length s.se_columns then
    invalid_arg "Metrics.sample: value count does not match the column count";
  s.se_samples <- (ts, values) :: s.se_samples

(* --- snapshots --------------------------------------------------------- *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { bounds : int list; counts : int list; sum : int; count : int }
  | Series of { columns : string list; samples : (int * float list) list }

type metric = {
  m_name : string;
  m_track : track;
  m_labels : (string * string) list;
  m_help : string;
  m_value : value;
}

type snapshot = metric list

let snapshot t =
  List.rev_map
    (fun (meta, instr) ->
      {
        m_name = meta.name;
        m_track = meta.track;
        m_labels = meta.labels;
        m_help = meta.help;
        m_value =
          (match instr with
          | I_counter c -> Counter c.c_total
          | I_gauge g -> Gauge g.g_value
          | I_hist h ->
              Histogram
                {
                  bounds = Array.to_list h.h_bounds;
                  counts = Array.to_list h.h_bins;
                  sum = h.h_sum;
                  count = h.h_count;
                }
          | I_series s ->
              Series { columns = s.se_columns; samples = List.rev s.se_samples });
      })
    t.rev_instrs

(* --- exposition -------------------------------------------------------- *)

let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else J.float_repr f

let track_order = [ Cycles; Sched; Wall ]

let track_marker track =
  Printf.sprintf "# track %s %s" (track_name track)
    (match track with
    | Cycles -> "(deterministic simulated-cycle domain)"
    | Sched -> "(cycle-stamped, fleet-shape dependent)"
    | Wall -> "(host wall-clock, non-deterministic)")

let by_track snap = List.map (fun tr -> (tr, List.filter (fun m -> m.m_track = tr) snap)) track_order

let escape_help s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_prometheus snap =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let announced = Hashtbl.create 16 in
  add "# htvm-metrics v1\n";
  List.iter
    (fun (track, metrics) ->
      add "%s\n" (track_marker track);
      List.iter
        (fun m ->
          (* One HELP/TYPE per metric name: label variants share them. *)
          let header kind name =
            if not (Hashtbl.mem announced name) then begin
              Hashtbl.add announced name ();
              if m.m_help <> "" then add "# HELP %s %s\n" name (escape_help m.m_help);
              add "# TYPE %s %s\n" name kind
            end
          in
          let labels = render_labels m.m_labels in
          match m.m_value with
          | Counter n ->
              header "counter" m.m_name;
              add "%s%s %d\n" m.m_name labels n
          | Gauge v ->
              header "gauge" m.m_name;
              add "%s%s %s\n" m.m_name labels (prom_float v)
          | Histogram { bounds; counts; sum; count } ->
              header "histogram" m.m_name;
              let le bound =
                render_labels (m.m_labels @ [ ("le", bound) ])
              in
              let cum = ref 0 in
              List.iter2
                (fun bound n ->
                  cum := !cum + n;
                  add "%s_bucket%s %d\n" m.m_name (le (string_of_int bound)) !cum)
                bounds
                (List.filteri (fun i _ -> i < List.length bounds) counts);
              add "%s_bucket%s %d\n" m.m_name (le "+Inf") count;
              add "%s_sum%s %d\n" m.m_name labels sum;
              add "%s_count%s %d\n" m.m_name labels count
          | Series { columns; samples } ->
              List.iteri
                (fun i col ->
                  let name = m.m_name ^ "_" ^ col in
                  header "gauge" name;
                  List.iter
                    (fun (ts, values) ->
                      add "%s%s %s %d\n" name labels (prom_float (List.nth values i)) ts)
                    samples)
                columns)
        metrics)
    (by_track snap);
  Buffer.contents buf

let to_json snap =
  let metric_json m =
    let base =
      [
        ("name", J.Str m.m_name);
        ("labels", J.Obj (List.map (fun (k, v) -> (k, J.Str v)) m.m_labels));
      ]
    in
    let base = if m.m_help = "" then base else base @ [ ("help", J.Str m.m_help) ] in
    J.Obj
      (base
      @
      match m.m_value with
      | Counter n -> [ ("kind", J.Str "counter"); ("value", J.Int n) ]
      | Gauge v -> [ ("kind", J.Str "gauge"); ("value", J.Float v) ]
      | Histogram { bounds; counts; sum; count } ->
          [
            ("kind", J.Str "histogram");
            ("bounds", J.List (List.map (fun b -> J.Int b) bounds));
            ("counts", J.List (List.map (fun n -> J.Int n) counts));
            ("sum", J.Int sum);
            ("count", J.Int count);
          ]
      | Series { columns; samples } ->
          [
            ("kind", J.Str "series");
            ("columns", J.List (List.map (fun c -> J.Str c) columns));
            ( "samples",
              J.List
                (List.map
                   (fun (ts, values) ->
                     J.Obj
                       [
                         ("ts", J.Int ts);
                         ("values", J.List (List.map (fun v -> J.Float v) values));
                       ])
                   samples) );
          ])
  in
  J.Obj
    [
      ("version", J.Int 1);
      ( "tracks",
        J.Obj
          (List.map
             (fun (track, metrics) ->
               (track_name track, J.List (List.map metric_json metrics)))
             (by_track snap)) );
    ]

let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\""
    ^ String.concat "\"\"" (String.split_on_char '"' s)
    ^ "\""
  else s

let to_csv snap =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "track,name,labels,kind,field,ts,value\n";
  let row ~track ~name ~labels ~kind ~field ~ts ~value =
    Buffer.add_string buf
      (String.concat ","
         (List.map csv_field [ track; name; labels; kind; field; ts; value ]));
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun (track, metrics) ->
      let track = track_name track in
      List.iter
        (fun m ->
          let labels =
            String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) m.m_labels)
          in
          let row = row ~track ~name:m.m_name ~labels in
          match m.m_value with
          | Counter n -> row ~kind:"counter" ~field:"" ~ts:"" ~value:(string_of_int n)
          | Gauge v -> row ~kind:"gauge" ~field:"" ~ts:"" ~value:(prom_float v)
          | Histogram { bounds; counts; sum; count } ->
              List.iteri
                (fun i n ->
                  let field =
                    if i < List.length bounds then
                      "le:" ^ string_of_int (List.nth bounds i)
                    else "le:+Inf"
                  in
                  row ~kind:"histogram" ~field ~ts:"" ~value:(string_of_int n))
                counts;
              row ~kind:"histogram" ~field:"sum" ~ts:"" ~value:(string_of_int sum);
              row ~kind:"histogram" ~field:"count" ~ts:"" ~value:(string_of_int count)
          | Series { columns; samples } ->
              List.iter
                (fun (ts, values) ->
                  List.iter2
                    (fun col v ->
                      row ~kind:"series" ~field:col ~ts:(string_of_int ts)
                        ~value:(prom_float v))
                    columns values)
                samples)
        metrics)
    (by_track snap);
  Buffer.contents buf

type format = Prom | Json | Csv

let format_of_string = function
  | "prom" -> Ok Prom
  | "json" -> Ok Json
  | "csv" -> Ok Csv
  | other -> Error (Printf.sprintf "unknown metrics format %S (prom|json|csv)" other)

let render = function
  | Prom -> to_prometheus
  | Json -> fun snap -> J.to_string (to_json snap) ^ "\n"
  | Csv -> to_csv
