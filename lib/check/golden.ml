(* Golden conformance snapshots (see golden.mli). *)

module C = Htvm.Compile

type entry = {
  ge_model : string;
  ge_config : string;
  ge_output_digest : string;
  ge_wall_cycles : int;
  ge_binary_bytes : int;
  ge_l2_static_bytes : int;
  ge_l2_arena_bytes : int;
}

let configurations =
  [
    ("cpu", Arch.Diana.cpu_only, Models.Policy.All_int8);
    ("digital", Arch.Diana.digital_only, Models.Policy.All_int8);
    ("analog", Arch.Diana.analog_only, Models.Policy.All_ternary);
    ("both", Arch.Diana.platform, Models.Policy.Mixed);
  ]

let cases =
  List.concat_map
    (fun (e : Models.Zoo.entry) ->
      List.map (fun (c, _, _) -> (e.Models.Zoo.model_name, c)) configurations)
    Models.Zoo.all

let filename ~model ~config = Printf.sprintf "%s.%s.golden" model config
let input_seed = 7

let digest_tensor = Tensor.digest

let compute ~model ~config =
  match
    ( List.find_opt (fun (e : Models.Zoo.entry) -> e.Models.Zoo.model_name = model)
        Models.Zoo.all,
      List.find_opt (fun (c, _, _) -> c = config) configurations )
  with
  | None, _ -> Error (Printf.sprintf "unknown model %S" model)
  | _, None -> Error (Printf.sprintf "unknown config %S" config)
  | Some entry, Some (_, platform, policy) -> (
      let g = entry.Models.Zoo.build policy in
      (* Pinned to jobs = 1 so the snapshot is independent of HTVM_JOBS —
         the engine guarantees bit-identical artifacts at any job count,
         and the suite relies on exactly that. *)
      let cfg = { (C.default_config platform) with C.jobs = 1 } in
      match C.compile cfg g with
      | Error e ->
          Error
            (Printf.sprintf "%s/%s failed to compile: %s" model config
               (C.error_to_string e))
      | Ok artifact ->
          let inputs = Models.Zoo.random_input ~seed:input_seed g in
          let out, report = C.run artifact ~inputs in
          Ok
            {
              ge_model = model;
              ge_config = config;
              ge_output_digest = digest_tensor out;
              ge_wall_cycles = C.full_cycles report;
              ge_binary_bytes = artifact.C.size.Codegen.Size.total_bytes;
              ge_l2_static_bytes = artifact.C.l2_static_bytes;
              ge_l2_arena_bytes = artifact.C.l2_arena_bytes;
            })

let to_string e =
  String.concat "\n"
    [
      "htvm-golden v1";
      "model: " ^ e.ge_model;
      "config: " ^ e.ge_config;
      "output_digest: " ^ e.ge_output_digest;
      "wall_cycles: " ^ string_of_int e.ge_wall_cycles;
      "binary_bytes: " ^ string_of_int e.ge_binary_bytes;
      "l2_static_bytes: " ^ string_of_int e.ge_l2_static_bytes;
      "l2_arena_bytes: " ^ string_of_int e.ge_l2_arena_bytes;
      "";
    ]

let of_string s =
  let lines =
    String.split_on_char '\n' s |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | "htvm-golden v1" :: fields -> (
      let kv =
        List.filter_map
          (fun l ->
            match String.index_opt l ':' with
            | Some i ->
                Some
                  ( String.sub l 0 i,
                    String.trim (String.sub l (i + 1) (String.length l - i - 1)) )
            | None -> None)
          fields
      in
      let str k = List.assoc_opt k kv in
      let int k = Option.bind (str k) int_of_string_opt in
      match
        ( str "model", str "config", str "output_digest",
          int "wall_cycles", int "binary_bytes",
          int "l2_static_bytes", int "l2_arena_bytes" )
      with
      | Some m, Some c, Some d, Some w, Some b, Some ls, Some la ->
          Ok
            {
              ge_model = m;
              ge_config = c;
              ge_output_digest = d;
              ge_wall_cycles = w;
              ge_binary_bytes = b;
              ge_l2_static_bytes = ls;
              ge_l2_arena_bytes = la;
            }
      | _ -> Error "missing or malformed golden field")
  | _ -> Error "not an htvm-golden v1 file"

let load ~dir ~model ~config =
  let path = Filename.concat dir (filename ~model ~config) in
  if not (Sys.file_exists path) then
    Error
      (Printf.sprintf "no golden snapshot %s — record it with: htvmc check --bless"
         path)
  else
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    match of_string s with
    | Ok e -> Ok e
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg)

let bless ~dir e =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (filename ~model:e.ge_model ~config:e.ge_config) in
  let oc = open_out_bin path in
  output_string oc (to_string e);
  close_out oc

let diff ~expected ~actual =
  let field name render get =
    if get expected = get actual then None
    else
      Some
        (Printf.sprintf "%s: expected %s, got %s" name
           (render (get expected)) (render (get actual)))
  in
  List.filter_map Fun.id
    [
      field "output_digest" Fun.id (fun e -> e.ge_output_digest);
      field "wall_cycles" string_of_int (fun e -> e.ge_wall_cycles);
      field "binary_bytes" string_of_int (fun e -> e.ge_binary_bytes);
      field "l2_static_bytes" string_of_int (fun e -> e.ge_l2_static_bytes);
      field "l2_arena_bytes" string_of_int (fun e -> e.ge_l2_arena_bytes);
    ]
