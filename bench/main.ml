(* Benchmark harness entry point. Regenerates every table and figure of
   the paper's evaluation plus the ablations; see DESIGN.md's experiment
   index. Usage:
   main.exe [fig2|fig4|fig5|table1|table2|ablation|energy|quant|all].
   Host-time measurement of the system itself lives in bench/perf. *)

let experiments =
  [
    ("fig2", Fig2.run);
    ("fig4", Fig4.run);
    ("fig5", Fig5.run);
    ("table1", Table1.run);
    ("table2", Table2.run);
    ("ablation", Ablation.run);
    ("energy", Energy.run);
    ("quant", Quantization.run);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | [] | _ :: [] | _ :: "all" :: _ -> List.map fst experiments
    | _ :: names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" name
            (String.concat ", " (List.map fst experiments));
          exit 2)
    requested
