(* Persistent, content-addressed compilation cache.

   Layout (version-prefixed so a future format bump is a clean miss,
   not a misread):

     <root>/v1/layer/<d0d1>/<digest>       one file per entry
     <root>/v1/artifact/<d0d1>/<digest>
     <root>/v1/index                       advisory inventory

   where <digest> is the hex digest of the caller's key and <d0d1> its
   first two hex chars (256-way sharding keeps directories small).

   Entry format: a single header line

     htvm-store v1 <tier> <payload-digest-hex> <payload-length>\n

   followed by exactly <payload-length> bytes of payload. A load
   re-derives every header field from the bytes actually read; any
   mismatch rejects the entry (delete + report absent) so the caller
   recomputes and overwrites. Rejection, not failure: a corrupt cache
   costs a recompute, never a crash and never a wrong artifact. *)

type tier = Layer | Artifact

type entry = {
  e_tier : tier;
  e_digest : string;
  e_bytes : int;
  e_mtime : float;
}

type t = {
  root : string;
  mutable hits : int;
  mutable misses : int;
  mutable rejects : int;
  mutable evictions : int;
}

let magic = "htvm-store"
let version = "v1"
let tier_name = function Layer -> "layer" | Artifact -> "artifact"

let default_root () =
  let non_empty = function Some d when d <> "" -> Some d | _ -> None in
  match non_empty (Sys.getenv_opt "HTVM_CACHE_DIR") with
  | Some d -> d
  | None -> (
      match non_empty (Sys.getenv_opt "XDG_CACHE_HOME") with
      | Some d -> Filename.concat d "htvm"
      | None -> (
          match non_empty (Sys.getenv_opt "HOME") with
          | Some h ->
              Filename.concat (Filename.concat h ".cache") "htvm"
          | None ->
              Filename.concat (Filename.get_temp_dir_name ()) "htvm-cache"))

(* mkdir -p, tolerant of another process creating the same component
   concurrently (EEXIST surfaces as Sys_error here). *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ -> if not (Sys.is_directory dir) then raise (Sys_error (dir ^ ": cannot create store directory"))
  end

let version_root t = Filename.concat t.root version
let tier_dir t tier = Filename.concat (version_root t) (tier_name tier)

let open_root root =
  if root = "" then raise (Sys_error "empty store root");
  let t = { root; hits = 0; misses = 0; rejects = 0; evictions = 0 } in
  mkdir_p (tier_dir t Layer);
  mkdir_p (tier_dir t Artifact);
  t

let root t = t.root
let hits t = t.hits
let misses t = t.misses
let rejects t = t.rejects
let evictions t = t.evictions

let digest_of_key key = Digest.to_hex (Digest.string key)

let path_of_digest t tier digest =
  Filename.concat
    (Filename.concat (tier_dir t tier) (String.sub digest 0 2))
    digest

let header tier payload =
  Printf.sprintf "%s %s %s %s %d\n" magic version (tier_name tier)
    (Digest.to_hex (Digest.string payload))
    (String.length payload)

(* Validate one raw entry file against the tier it was found under.
   Returns the payload only if the header parses, names this format
   version and tier, and the length and content digest both match the
   bytes present. *)
let payload_of_raw tier raw =
  match String.index_opt raw '\n' with
  | None -> None
  | Some nl -> (
      let header = String.sub raw 0 nl in
      match String.split_on_char ' ' header with
      | [ m; v; tn; dg; len ] -> (
          match int_of_string_opt len with
          | None -> None
          | Some len ->
              let body_start = nl + 1 in
              if
                m = magic && v = version
                && tn = tier_name tier
                && String.length raw = body_start + len
              then
                let payload = String.sub raw body_start len in
                if Digest.to_hex (Digest.string payload) = dg then
                  Some payload
                else None
              else None)
      | _ -> None)

let read_file path =
  if Sys.file_exists path then
    try Some (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error _ -> None
  else None

let remove_quiet path = try Sys.remove path with Sys_error _ -> ()

(* Bump mtime so GC's LRU ordering reflects last use, not last write. *)
let touch path = try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ()

let find t tier ~key =
  let path = path_of_digest t tier (digest_of_key key) in
  match read_file path with
  | None ->
      t.misses <- t.misses + 1;
      None
  | Some raw -> (
      match payload_of_raw tier raw with
      | Some payload ->
          t.hits <- t.hits + 1;
          touch path;
          Some payload
      | None ->
          t.rejects <- t.rejects + 1;
          remove_quiet path;
          None)

let put t tier ~key payload =
  let path = path_of_digest t tier (digest_of_key key) in
  mkdir_p (Filename.dirname path);
  Util.File.write_atomic path (header tier payload ^ payload)

let invalidate t tier ~key =
  t.rejects <- t.rejects + 1;
  remove_quiet (path_of_digest t tier (digest_of_key key))

let is_hex_digest name =
  String.length name = 32
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       name

let readdir_sorted dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      let l = Array.to_list names in
      List.sort compare l

let entries t =
  List.concat_map
    (fun tier ->
      let dir = tier_dir t tier in
      List.concat_map
        (fun shard ->
          let sdir = Filename.concat dir shard in
          if Sys.is_directory sdir then
            List.filter_map
              (fun name ->
                if is_hex_digest name then
                  let path = Filename.concat sdir name in
                  match Unix.stat path with
                  | exception Unix.Unix_error _ -> None
                  | st ->
                      Some
                        {
                          e_tier = tier;
                          e_digest = name;
                          e_bytes = st.Unix.st_size;
                          e_mtime = st.Unix.st_mtime;
                        }
                else None)
              (readdir_sorted sdir)
          else [])
        (readdir_sorted dir))
    [ Layer; Artifact ]

let total_bytes es = List.fold_left (fun acc e -> acc + e.e_bytes) 0 es

let index_path t = Filename.concat (version_root t) "index"

let write_index_of t es =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%s-index %s\n" magic version);
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s %d %.0f\n" (tier_name e.e_tier) e.e_digest
           e.e_bytes e.e_mtime))
    es;
  Util.File.write_atomic (index_path t) (Buffer.contents buf)

let write_index t = write_index_of t (entries t)

let verify t =
  let ok = ref 0 and removed = ref 0 in
  List.iter
    (fun e ->
      let path = path_of_digest t e.e_tier e.e_digest in
      let valid =
        match read_file path with
        | None -> false
        | Some raw -> payload_of_raw e.e_tier raw <> None
      in
      if valid then incr ok
      else begin
        t.rejects <- t.rejects + 1;
        remove_quiet path;
        incr removed
      end)
    (entries t);
  write_index t;
  (!ok, !removed)

let gc t ~max_bytes =
  let es = entries t in
  (* Oldest mtime first; digest breaks ties so the order — hence the
     eviction set — is deterministic for any fixed on-disk state. *)
  let by_age =
    List.sort
      (fun a b ->
        match compare a.e_mtime b.e_mtime with
        | 0 -> compare (a.e_tier, a.e_digest) (b.e_tier, b.e_digest)
        | c -> c)
      es
  in
  let total = ref (total_bytes es) in
  let evicted = ref 0 in
  List.iter
    (fun e ->
      if !total > max_bytes then begin
        remove_quiet (path_of_digest t e.e_tier e.e_digest);
        total := !total - e.e_bytes;
        t.evictions <- t.evictions + 1;
        incr evicted
      end)
    by_age;
  write_index t;
  !evicted
