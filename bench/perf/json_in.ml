(* A small JSON reader into [Trace.Json.t]: enough for BENCHMARK.json,
   the benchmark's result lines and checking that a Chrome trace parses.
   [Trace.Json] only writes. *)

type t = Trace.Json.t

exception Bad of string

let parse s : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let err msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip_ws ()
      | _ -> ()
  in
  let expect c =
    if peek () = c then incr pos else err (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let k = String.length word in
    if !pos + k <= n && String.sub s !pos k = word then begin
      pos := !pos + k;
      v
    end
    else err "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then err "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then err "bad escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char b e
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' -> (
              if !pos + 4 > n then err "bad \\u escape";
              match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
              | None -> err "bad \\u escape"
              | Some code ->
                  pos := !pos + 4;
                  Buffer.add_utf_8_uchar b
                    (if Uchar.is_valid code then Uchar.of_int code else Uchar.rep))
          | _ -> err "bad escape");
          go ()
      | c when Char.code c < 0x20 -> err "control character in string"
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    let lit = String.sub s start (!pos - start) in
    match int_of_string_opt lit with
    | Some i -> Trace.Json.Int i
    | None -> (
        match float_of_string_opt lit with
        | Some f -> Trace.Json.Float f
        | None -> err "bad number")
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then begin
          incr pos;
          Trace.Json.Obj []
        end
        else
          let rec fields acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
                incr pos;
                fields ((k, v) :: acc)
            | '}' ->
                incr pos;
                Trace.Json.Obj (List.rev ((k, v) :: acc))
            | _ -> err "expected ',' or '}'"
          in
          fields []
    | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then begin
          incr pos;
          Trace.Json.List []
        end
        else
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
                incr pos;
                items (v :: acc)
            | ']' ->
                incr pos;
                Trace.Json.List (List.rev (v :: acc))
            | _ -> err "expected ',' or ']'"
          in
          items []
    | '"' -> Trace.Json.Str (string_lit ())
    | 't' -> literal "true" (Trace.Json.Bool true)
    | 'f' -> literal "false" (Trace.Json.Bool false)
    | 'n' -> literal "null" Trace.Json.Null
    | '-' | '0' .. '9' -> number ()
    | _ -> err "unexpected character"
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then err "trailing characters";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let member k = function Trace.Json.Obj kv -> List.assoc_opt k kv | _ -> None

let to_float = function
  | Trace.Json.Int i -> Some (float_of_int i)
  | Trace.Json.Float f -> Some f
  | _ -> None
