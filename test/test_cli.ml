(* The htvmc command line, driven through the built binary.

   A generated grid runs each subcommand with each of its integer flags
   set, one at a time, to min_int, -1, 0, 1, the flag's documented
   sentinels and (where the command stays small) max_int, always written
   --flag=V. The flag table below records each flag's documented range:
   a value inside it must exit 0, a value outside it must be refused. A
   refusal is exit 1 with exactly one stderr line starting "htvmc: ", an
   empty stdout, and nothing new in the working directory or the
   --cache-dir. No run may exit with any other code (cmdliner's 124 or
   an uncaught exception's 125 included). The table is cross-checked
   against each subcommand's --help=plain, so a new integer flag without
   an entry fails here.

   The same binary is held to the goldens under golden/cli/: --help=plain
   of every subcommand, and the deterministic stdout of compile, run,
   profile, verify, report and chaos on resnet8. *)

let exe = Filename.concat (Sys.getcwd ()) (Filename.concat ".." "bin/htvmc.exe")
let read path = In_channel.with_open_bin path In_channel.input_all

(* --- running the binary --- *)

type outcome = { code : int; out : string; err : string }

(* A scratch root holding the captured streams, and under it the
   working directory the runs see. *)
let root =
  lazy
    (let r = Filename.temp_file "htvm-cli" "" in
     Sys.remove r;
     Sys.mkdir r 0o755;
     Sys.mkdir (Filename.concat r "w") 0o755;
     at_exit (fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote r)));
     r)

let work () = Filename.concat (Lazy.force root) "w"

let htvmc ?(dir = work ()) args =
  let capture name = Filename.concat (Lazy.force root) name in
  let fd name = Unix.openfile (capture name) [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let out = fd "stdout" and err = fd "stderr" in
  let cwd = Sys.getcwd () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Sys.chdir cwd;
        Unix.close out;
        Unix.close err)
      (fun () ->
        Sys.chdir dir;
        Unix.create_process exe (Array.of_list ("htvmc" :: args)) Unix.stdin out err)
  in
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 1000 + abs s
  in
  { code; out = read (capture "stdout"); err = read (capture "stderr") }

(* Every path under [dir], directories marked with a trailing slash. *)
let listing dir =
  let rec go rel =
    Sys.readdir (if rel = "" then dir else Filename.concat dir rel)
    |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
           let r = if rel = "" then name else Filename.concat rel name in
           if Sys.is_directory (Filename.concat dir r) then (r ^ "/") :: go r else [ r ])
  in
  go ""

let show args = String.concat " " ("htvmc" :: args)

(* [None] when [o] is a clean refusal, else what is wrong with it. *)
let refusal_problem ~before ~after o =
  let lines = String.split_on_char '\n' o.err in
  if o.code <> 1 then Some (Printf.sprintf "exit %d, want 1" o.code)
  else if o.out <> "" then Some "stdout is not empty"
  else if
    List.length lines <> 2
    || List.nth lines 1 <> ""
    || not (String.starts_with ~prefix:"htvmc: " o.err)
  then Some (Printf.sprintf "stderr is not one `htvmc: ` line: %S" o.err)
  else if before <> after then Some "it wrote into the working directory or the store"
  else None

(* --- the flag table --- *)

type flag = {
  name : string;
  lo : int;  (** documented range, inclusive *)
  hi : int;
  extra : string list;  (** what the base needs for the flag to be read *)
  sentinels : int list;
  no_max : string option;  (** why max_int is not run *)
  refused_in_range : (int * string) list;
}

let flag ?(lo = min_int) ?(hi = max_int) ?(extra = []) ?(sentinels = []) ?no_max
    ?(refused_in_range = []) name =
  { name; lo; hi; extra; sentinels; no_max; refused_in_range }

(* The flags whose max_int would size unbounded work. *)
let jobs =
  flag "jobs" ~lo:1 ~sentinels:[ 2 ]
    ~no_max:"spawns N domains, up to the runtime's limit; never run above 2"
let seeds = flag "seeds" ~lo:0 ~no_max:"one fuzz case per seed"

(* The base runs one seed, so a range starting at max_int overflows. *)
let start =
  flag "start" ~refused_in_range:[ (max_int, "start + seeds overflows the ints") ]
let requests = flag "requests" ~lo:0 ~no_max:"one inference per request"
let workers = flag "workers" ~lo:1 ~no_max:"one simulated instance per worker"

(* Poisson arrivals read --gap and --window; closed ones never do. *)
let fleet =
  [
    jobs;
    workers;
    flag "batch" ~lo:1;
    flag "queue-depth" ~lo:1;
    requests;
    flag "seed";
    flag "gap" ~lo:0 ~sentinels:[ 0 ] ~extra:[ "--arrival=poisson" ];
    flag "window" ~lo:0 ~sentinels:[ 0 ] ~extra:[ "--arrival=poisson" ];
    flag "dispatch-overhead" ~lo:0;
    flag "slo-sojourn" ~lo:1;
    flag "retry-budget" ~lo:0;
  ]

(* An explicit cap is checked against the auto probation window, twice
   a request's service cycles. A cap of 1 is below it for any plan, so
   it is refused before the compile; caps between 2 and the window
   need the plan (see [test_plan_dependent_refusal]). *)
let health ~extra =
  [
    flag "health-threshold" ~lo:1 ~extra;
    flag "probation" ~lo:0 ~sentinels:[ 0 ] ~extra
      ~refused_in_range:[ (max_int, "the auto cap, eight windows, overflows") ];
    flag "probe-interval" ~lo:(-1) ~sentinels:[ -1; 0 ] ~extra;
    flag "probe-cost" ~lo:0 ~sentinels:[ 0 ] ~extra;
    flag "probe-passes" ~lo:1 ~extra;
    flag "health-cap" ~lo:0 ~sentinels:[ 0 ] ~extra
      ~refused_in_range:[ (1, "below the smallest auto probation window (2 cycles)") ];
    flag "health-seed" ~extra;
  ]

type command = {
  cmd : string;
  base : string list;  (** a quick command line that exits 0 *)
  ints : flag list;
  others : string list;  (** every other option, by its long name *)
}

let model = [ "toy.htvm"; "-c"; "both" ]
let store = [ "--cache-dir"; "warm-store" ]
let exec_others =
  [ "config"; "cache"; "cache-dir"; "degrade"; "faults"; "inject"; "metrics";
    "metrics-format"; "no-cache"; "no-plan"; "trace" ]
let multi_tenant = [ "--class"; "a=main" ]

let table =
  [
    { cmd = "export"; base = []; ints = []; others = [ "policy"; "o" ] };
    { cmd = "export-float"; base = []; ints = []; others = [ "o" ] };
    {
      cmd = "quantize";
      base = [ "f.fhtvm"; "-o"; "q.htvm" ];
      ints = [ flag "samples" ~lo:1 ~no_max:"one calibration tensor per sample" ];
      others = [ "ternary"; "o" ];
    };
    { cmd = "inspect"; base = []; ints = []; others = [ "verbose" ] };
    {
      cmd = "compile";
      base = model @ store;
      ints = [ jobs ];
      others = [ "config"; "cache"; "cache-dir"; "emit-c"; "no-cache"; "trace" ];
    };
    {
      cmd = "run";
      base = model @ store;
      ints = [ jobs; flag "seed"; flag "retry-budget" ~lo:0 ];
      others = exec_others;
    };
    {
      cmd = "profile";
      base = model @ store;
      ints = [ jobs; flag "seed"; flag "retry-budget" ~lo:0 ];
      others = "json" :: exec_others;
    };
    {
      cmd = "verify";
      base = model @ [ "--trials=1" ];
      ints = [ jobs; flag "trials" ~lo:1 ~no_max:"one inference per trial" ];
      others = [ "config" ];
    };
    {
      cmd = "check";
      base = [ "--seeds=1" ];
      ints =
        [ seeds; start; jobs; flag "replay-seed"; flag "max-shrink-checks" ~lo:0 ];
      others = [ "bless"; "golden-dir"; "repro" ];
    };
    {
      cmd = "chaos";
      base = [ "--seeds=1" ];
      ints =
        [ seeds; start; jobs; flag "retry-budget" ~lo:0; flag "replay-seed";
          flag "max-shrink-checks" ~lo:0 ];
      others = [ "metrics"; "metrics-format"; "repro" ];
    };
    {
      cmd = "serve";
      base = model @ [ "--requests=2" ] @ store;
      ints =
        fleet
        @ health ~extra:[ "--health" ]
        @ [
            flag "degrade-after" ~lo:1;
            (* Ids index the default fleet of 4 instances. *)
            flag "degraded" ~lo:0 ~hi:3;
            flag "input-mix" ~lo:0 ~sentinels:[ 0 ];
            flag "swap-overhead" ~lo:0 ~extra:multi_tenant;
            flag "period" ~lo:0 ~sentinels:[ 0 ]
              ~extra:(multi_tenant @ [ "--arrival=diurnal" ]);
            flag "burst" ~lo:1 ~extra:(multi_tenant @ [ "--arrival=bursty" ]);
          ];
      others =
        [ "arrival"; "config"; "cache"; "cache-dir"; "class"; "faults"; "health";
          "inject"; "json"; "memoize"; "metrics"; "metrics-format"; "model"; "no-cache";
          "no-plan"; "placement"; "probe-fail"; "replay"; "tally"; "trace"; "trace-out" ];
    };
    {
      cmd = "campaign";
      base = model @ [ "--requests=2"; "--rates=0.01" ];
      ints = fleet @ health ~extra:[] @ [ flag "fault-seed" ];
      others =
        [ "arrival"; "config"; "fault-kind"; "json"; "metrics"; "metrics-format";
          "no-health"; "no-plan"; "probe-fail"; "rates"; "site"; "tally" ];
    };
    { cmd = "report"; base = model; ints = [ jobs ]; others = [ "config"; "json"; "o" ] };
    {
      cmd = "cache";
      base = [ "gc" ] @ store;
      ints = [ flag "max-bytes" ~lo:0 ];
      others = [ "cache-dir" ];
    };
    { cmd = "dot"; base = []; ints = []; others = [ "config"; "o" ] };
  ]

let values f =
  List.sort_uniq compare
    ([ min_int; -1; 0; 1 ] @ f.sentinels @ if f.no_max = None then [ max_int ] else [])

(* The model files every base command line reads. *)
let setup =
  lazy
    (List.iter
       (fun args ->
         let o = htvmc args in
         if o.code <> 0 then Alcotest.failf "setup %s: exit %d: %s" (show args) o.code o.err)
       [
         [ "export"; "toyadmos_dae"; "--policy"; "mixed"; "-o"; "toy.htvm" ];
         [ "export-float"; "small-cnn"; "-o"; "f.fhtvm" ];
       ])

(* Run [args]: it must exit 0 when [accept], else be a clean refusal
   (whose stderr line, when [err] is given, is ["htvmc: " ^ err]). A run
   that must be refused gets a store directory nothing has created, so
   any store work it does before refusing shows. *)
let expect ?err ~accept args =
  let args =
    if accept then args
    else List.map (fun a -> if a = "warm-store" then "cold-store" else a) args
  in
  let dir = work () in
  let before = listing dir in
  let o = htvmc args in
  let after = listing dir in
  let cold = Filename.concat dir "cold-store" in
  if Sys.file_exists cold then ignore (Sys.command ("rm -rf " ^ Filename.quote cold));
  if accept then
    if o.code = 0 then None
    else Some (Printf.sprintf "%s: exit %d, want 0; stderr: %S" (show args) o.code o.err)
  else
    match (refusal_problem ~before ~after o, err) with
    | Some why, _ -> Some (Printf.sprintf "%s: %s" (show args) why)
    | None, Some want when o.err <> "htvmc: " ^ want ^ "\n" ->
        Some (Printf.sprintf "%s: stderr %S, want htvmc: %s" (show args) o.err want)
    | None, _ -> None

let test_flag_grid () =
  Lazy.force setup;
  let problems =
    List.concat_map
      (fun c ->
        List.concat_map
          (fun f ->
            let base =
              List.filter
                (fun a -> not (String.starts_with ~prefix:("--" ^ f.name ^ "=") a))
                c.base
            in
            List.filter_map
              (fun v ->
                let accept =
                  f.lo <= v && v <= f.hi && not (List.mem_assoc v f.refused_in_range)
                in
                expect ~accept
                  ((c.cmd :: base) @ f.extra @ [ Printf.sprintf "--%s=%d" f.name v ]))
              (values f))
          c.ints)
      table
  in
  if problems <> [] then
    Alcotest.failf "%d command line(s) misbehaved:\n%s" (List.length problems)
      (String.concat "\n" problems)

(* Command lines the one-flag grid cannot express. *)
let test_flag_combinations () =
  Lazy.force setup;
  let serve = ("serve" :: model) @ [ "--requests=2" ] @ store in
  let problems =
    List.filter_map
      (fun (accept, args) -> expect ~accept args)
      [
        (* A cap below an explicit probation window contradicts the
           command line alone. *)
        (false, serve @ [ "--health"; "--probation=5"; "--health-cap=1" ]);
        (true, serve @ [ "--health"; "--probation=5"; "--health-cap=5" ]);
        (* Multi-tenant serving autotunes the batch size at 0. *)
        (true, serve @ multi_tenant @ [ "--batch=0" ]);
        (false, serve @ multi_tenant @ [ "--batch=-1" ]);
        (* A cache action is checked before the store is opened. *)
        (false, [ "cache"; "gc" ] @ store);
        (false, [ "cache"; "bogus" ] @ store);
      ]
  in
  if problems <> [] then Alcotest.failf "%s" (String.concat "\n" problems)

(* The exact line of each refusal the grid only checks the shape of:
   a negative --retry-budget would act as 0; multi-tenant serve models
   no faults, so it refuses any --retry-budget rather than ignore it; an
   unknown --metrics-format is refused even when the run would never
   dump; a negative --seeds would run an empty range and a negative
   --max-shrink-checks would act as 0; a --degrade-after below 1 would
   degrade every instance that serves; a seed range past max_int would
   wrap round to negative seeds; single-tenant serve refuses the
   multi-tenant-only flags it would ignore, even at their default. *)
let test_refusal_messages () =
  Lazy.force setup;
  let tally = [ "--requests=4"; "--tally"; "tally.txt" ] in
  let bogus = [ "--metrics"; "m.prom"; "--metrics-format"; "bogus" ] in
  let bad_format = "unknown metrics format \"bogus\" (prom|json|csv)" in
  let negative_budget = "--retry-budget must be >= 0 (got -1)" in
  let serve = ("serve" :: model) @ store @ tally in
  let problems =
    List.filter_map
      (fun (err, args) -> expect ~err ~accept:false args)
      ([
         (negative_budget, ("run" :: model) @ store @ [ "--retry-budget=-1" ]);
         ( "--retry-budget is not supported with --model/--class/--replay",
           serve @ multi_tenant @ [ "--retry-budget=7" ] );
         (bad_format, ("run" :: model) @ store @ bogus);
         (bad_format, "chaos" :: "--seeds=4" :: bogus);
         ("--seeds must be >= 0 (got -1)", [ "check"; "--seeds=-1" ]);
         ("--seeds must be >= 0 (got -3)", [ "chaos"; "--seeds=-3"; "--metrics"; "m.prom" ]);
         ( Printf.sprintf "--start + --seeds must be <= %d (got %d + 2)" max_int max_int,
           [ "check"; "--seeds=2"; Printf.sprintf "--start=%d" max_int ] );
         ("Serve.run: degrade_after must be >= 1", serve @ [ "--degrade-after=0" ]);
         ("--placement requires --class (multi-tenant mode)", serve @ [ "--placement=pinned" ]);
         ( "--swap-overhead requires --class (multi-tenant mode)",
           serve @ [ "--swap-overhead=5000" ] );
         ("--period requires --class (multi-tenant mode)", serve @ [ "--period=77" ]);
         ("--burst requires --class (multi-tenant mode)", serve @ [ "--burst=3" ]);
       ]
      @ List.concat_map
          (fun cmd ->
            [
              (negative_budget, (cmd :: model) @ tally @ [ "--retry-budget=-1" ]);
              (bad_format, (cmd :: model) @ tally @ bogus);
            ])
          [ "serve"; "campaign" ]
      @ List.map
          (fun cmd ->
            ( "--max-shrink-checks must be >= 0 (got -1)",
              [ cmd; "--seeds=2"; "--max-shrink-checks=-1" ] ))
          [ "check"; "chaos" ])
  in
  if problems <> [] then Alcotest.failf "%s" (String.concat "\n" problems)

(* The one refusal left after the compile: an explicit cap below the
   probation window the plan resolves. It is still one line on stderr
   and nothing on stdout; the compile may have filled the store. *)
let test_plan_dependent_refusal () =
  Lazy.force setup;
  let args = ("serve" :: model) @ [ "--requests=2"; "--health"; "--health-cap=2" ] @ store in
  let o = htvmc args in
  Alcotest.(check int) "exit" 1 o.code;
  Alcotest.(check string) "stdout" "" o.out;
  Alcotest.(check string) "stderr"
    "htvmc: Serve.run: health: backoff_cap must be >= probation_window\n" o.err

(* --- the table against --help --- *)

(* The option names of a --help=plain page (each option's longest
   alias, dashes stripped), --help and --version left out. *)
let help_options page =
  let name token =
    let a = List.hd (String.split_on_char '=' token) in
    let a = if String.ends_with ~suffix:"," a then String.sub a 0 (String.length a - 1) else a in
    let dashes = if String.starts_with ~prefix:"--" a then 2 else 1 in
    String.sub a dashes (String.length a - dashes)
  in
  let longest l =
    List.fold_left (fun acc a -> if String.length a > String.length acc then a else acc) "" l
  in
  let rec options on = function
    | [] -> []
    | l :: rest ->
        if l <> "" && l.[0] <> ' ' then options (l = "OPTIONS") rest
        else if on && String.starts_with ~prefix:"       -" l then
          String.split_on_char ' ' (String.trim l)
          |> List.filter (String.starts_with ~prefix:"-")
          |> List.map name |> longest
          |> fun o -> o :: options on rest
        else options on rest
  in
  List.sort compare (options false (String.split_on_char '\n' page))

let subcommands () =
  let page = (htvmc [ "--help=plain" ]).out in
  let rec go on = function
    | [] -> []
    | l :: rest ->
        if l <> "" && l.[0] <> ' ' then go (l = "COMMANDS") rest
        else if on && String.length l > 7 && String.sub l 0 7 = "       " && l.[7] <> ' '
        then List.hd (String.split_on_char ' ' (String.trim l)) :: go on rest
        else go on rest
  in
  go false (String.split_on_char '\n' page)

let test_table_matches_help () =
  Alcotest.(check (list string))
    "one table entry per subcommand"
    (List.sort compare (subcommands ()))
    (List.sort compare (List.map (fun c -> c.cmd) table));
  List.iter
    (fun c ->
      let documented = help_options (htvmc [ c.cmd; "--help=plain" ]).out in
      let tabled = List.map (fun f -> f.name) c.ints @ c.others in
      Alcotest.(check (list string))
        (c.cmd ^ ": every option is in the table, integer flags with a range")
        documented (List.sort compare tabled))
    table

(* --- goldens pinned before the refactor --- *)

let golden_dir = Filename.concat "golden" "cli"

let check_golden name actual =
  let path = Filename.concat golden_dir name in
  let expected = if Sys.file_exists path then read path else "" in
  if actual <> expected then begin
    let out = path ^ ".actual" in
    Out_channel.with_open_bin out (fun oc -> output_string oc actual);
    Alcotest.failf "golden %s differs at %s\n(wrote %s; copy it over %s to re-bless)" name
      (Test_serve.first_difference expected actual)
      (Filename.concat (Sys.getcwd ()) out)
      path
  end

(* Every page renders cleanly too: exit 0 and nothing on stderr, where
   cmdliner reports a doc string it cannot parse. *)
let test_help_goldens () =
  let page name args =
    let o = htvmc args in
    if o.code <> 0 || o.err <> "" then
      Alcotest.failf "%s: exit %d, stderr %S" (show args) o.code o.err;
    check_golden name o.out
  in
  page "help.txt" [ "--help=plain" ];
  List.iter (fun c -> page ("help-" ^ c ^ ".txt") [ c; "--help=plain" ]) (subcommands ())

(* The compiler track's last column is host microseconds: drop it. *)
let strip_host_times profile =
  let section = ref "" in
  String.split_on_char '\n' profile
  |> List.map (fun l ->
         if String.starts_with ~prefix:"[" l then (section := l; l)
         else if !section = "[compiler]" then
           let n = String.length l in
           let i = ref n in
           while !i > 0 && l.[!i - 1] >= '0' && l.[!i - 1] <= '9' do decr i done;
           if !i = n then l
           else begin
             while !i > 0 && l.[!i - 1] = ' ' do decr i done;
             String.sub l 0 !i
           end
         else l)
  |> String.concat "\n"

let test_stdout_goldens () =
  let dir = Filename.concat (Lazy.force root) "golden" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let run args =
    let o = htvmc ~dir args in
    if o.code <> 0 then Alcotest.failf "%s: exit %d: %s" (show args) o.code o.err;
    o.out
  in
  ignore (run [ "export"; "resnet8"; "--policy"; "mixed"; "-o"; "r8.htvm" ]);
  let r8 = [ "r8.htvm"; "-c"; "both" ] in
  List.iter
    (fun (name, args) -> check_golden name (run args))
    [
      ("compile.out", "compile" :: r8);
      ("run.out", "run" :: r8);
      ("run-inject.out", ("run" :: r8) @ [ "--inject"; "seed=42,dma_in@every=5:drop" ]);
      ("verify.out", ("verify" :: r8) @ [ "-n"; "2" ]);
      ("report.md", "report" :: r8);
      ("report.json", ("report" :: r8) @ [ "--json" ]);
      ("chaos.out", [ "chaos"; "--seeds"; "20"; "-j"; "1" ]);
    ];
  check_golden "profile.out" (strip_host_times (run ("profile" :: r8)))

let suites =
  [
    ( "cli",
      [
        Alcotest.test_case "integer flag grid" `Quick test_flag_grid;
        Alcotest.test_case "flag combinations" `Quick test_flag_combinations;
        Alcotest.test_case "refusal messages" `Quick test_refusal_messages;
        Alcotest.test_case "plan-dependent refusal" `Quick test_plan_dependent_refusal;
        Alcotest.test_case "flag table matches --help" `Quick test_table_matches_help;
        Alcotest.test_case "help goldens" `Quick test_help_goldens;
        Alcotest.test_case "stdout goldens" `Quick test_stdout_goldens;
      ] );
  ]
