(* Random quantized-network generator for differential testing (see
   gen.mli). Every choice flows through one SplitMix64 stream per seed, so
   cases replay exactly from the integer seed alone. *)

module B = Ir.Graph.Builder
module Dtype = Tensor.Dtype

type value = { id : Ir.Graph.id; shape : int array }

let bias_const b rng n =
  let t = Tensor.create Dtype.I32 [| n |] in
  for i = 0 to n - 1 do
    Tensor.set_flat t i (Util.Rng.int_in rng (-8192) 8191)
  done;
  B.const b t

let conv_block b rng v ~dw =
  let c = v.shape.(0) and h = v.shape.(1) and w = v.shape.(2) in
  let f = if dw then 3 else [| 1; 3; 3; 5 |].(Util.Rng.int rng 4) in
  let stride = if Util.Rng.int rng 3 = 0 && h > f && w > f then 2 else 1 in
  let pad = if f = 1 then 0 else Util.Rng.int rng ((f / 2) + 1) in
  let oh = ((h + (2 * pad) - f) / stride) + 1 and ow = ((w + (2 * pad) - f) / stride) + 1 in
  if oh <= 0 || ow <= 0 then None
  else
    let k = if dw then c else [| 4; 8; 12; 16; 24 |].(Util.Rng.int rng 5) in
    let wdtype = if (not dw) && Util.Rng.int rng 3 = 0 then Dtype.Ternary else Dtype.I8 in
    let weights =
      Tensor.random rng wdtype [| k; (if dw then 1 else c); f; f |]
    in
    let wconst = B.const b weights in
    let groups = if dw then c else 1 in
    let conv =
      B.app b
        (Ir.Op.Conv2d { stride = (stride, stride); padding = (pad, pad); groups })
        [ v.id; wconst ]
    in
    let conv =
      if Util.Rng.bool rng then B.bias_add b conv ~bias:(bias_const b rng k) else conv
    in
    let shift = Util.Ints.log2_ceil (max 2 (c * f * f)) + if wdtype = Dtype.Ternary then 2 else 6 in
    let q =
      B.requantize b ~relu:(Util.Rng.bool rng) ~shift ~out_dtype:Dtype.I8 conv
    in
    Some { id = q; shape = [| k; oh; ow |] }

let pool_block b rng v =
  let h = v.shape.(1) and w = v.shape.(2) in
  if h < 2 || w < 2 then None
  else
    let id =
      if Util.Rng.bool rng then B.max_pool b ~pool:(2, 2) ~stride:(2, 2) v.id
      else B.avg_pool b ~pool:(2, 2) ~stride:(2, 2) v.id
    in
    Some { id; shape = [| v.shape.(0); h / 2; w / 2 |] }

let concat_block b rng v older =
  (* Concatenate with an earlier activation that shares the spatial dims
     (keeps total channels modest). *)
  match
    List.find_opt
      (fun o ->
        Array.length o.shape = 3
        && o.shape.(1) = v.shape.(1) && o.shape.(2) = v.shape.(2)
        && o.shape.(0) + v.shape.(0) <= 32)
      older
  with
  | None -> None
  | Some o ->
      let id = B.app b Ir.Op.Concat [ v.id; o.id ] in
      ignore rng;
      Some { id; shape = [| v.shape.(0) + o.shape.(0); v.shape.(1); v.shape.(2) |] }

let residual_block b rng v older =
  (* Find an earlier value with the same shape to add to. *)
  match List.find_opt (fun o -> o.shape = v.shape && o.id <> v.id) older with
  | None -> None
  | Some o ->
      let s = B.add b v.id o.id in
      let q = B.requantize b ~relu:(Util.Rng.bool rng) ~shift:1 ~out_dtype:Dtype.I8 s in
      Some { id = q; shape = v.shape }

(* A random spatial trunk followed by an optional classifier head. *)
let generate seed =
  let rng = Util.Rng.create seed in
  let b = B.create () in
  let c0 = 1 + Util.Rng.int rng 4 in
  let hw = [| 8; 10; 12; 16 |].(Util.Rng.int rng 4) in
  let x = B.input b ~name:"x" Dtype.I8 [| c0; hw; hw |] in
  let v = ref { id = x; shape = [| c0; hw; hw |] } in
  let older = ref [ !v ] in
  let steps = 2 + Util.Rng.int rng 5 in
  for _ = 1 to steps do
    let choice = Util.Rng.int rng 10 in
    let next =
      if choice < 5 then conv_block b rng !v ~dw:false
      else if choice < 7 then conv_block b rng !v ~dw:true
      else if choice < 8 then pool_block b rng !v
      else if choice < 9 then concat_block b rng !v !older
      else residual_block b rng !v !older
    in
    match next with
    | Some nv ->
        v := nv;
        older := nv :: !older
    | None -> ()
  done;
  let out =
    (* Force the head when every trunk block aborted: a generated case
       must always contain at least one operator application. *)
    if Util.Rng.bool rng || !v.id = x then begin
      (* classifier head: flatten -> dense -> softmax *)
      let features = Array.fold_left ( * ) 1 !v.shape in
      let flat = B.reshape b [| features |] !v.id in
      let classes = 2 + Util.Rng.int rng 10 in
      let w = B.const b (Tensor.random rng Dtype.I8 [| classes; features |]) in
      let fc = B.dense b flat ~weights:w in
      let fc = if Util.Rng.bool rng then B.bias_add b fc ~bias:(bias_const b rng classes) else fc in
      let q =
        B.requantize b ~shift:(Util.Ints.log2_ceil features + 6) ~out_dtype:Dtype.I8 fc
      in
      if Util.Rng.bool rng then B.softmax b q else q
    end
    else !v.id
  in
  B.finish b ~output:out

let random_config seed =
  let rng = Util.Rng.create (seed * 31) in
  let platform =
    match Util.Rng.int rng 5 with
    | 0 -> Arch.Diana.cpu_only
    | 1 -> Arch.Diana.digital_only
    | 2 -> Arch.Diana.analog_only
    | 3 -> Arch.Nova.platform
    | _ -> Arch.Diana.platform
  in
  (* Shrink L1 sometimes so tiling paths get exercised end to end. *)
  let platform =
    if Util.Rng.bool rng then
      {
        platform with
        Arch.Platform.l1 =
          { Arch.Memory.level_name = "L1";
            size_bytes = Util.Ints.kib [| 2; 4; 8; 32 |].(Util.Rng.int rng 4) };
      }
    else platform
  in
  (* Each draw is bound in turn so its order is explicit (OCaml leaves
     the evaluation order of record fields unspecified). The order is
     part of every seed's config, and so of the pinned fuzz tallies. *)
  (* The retired exhaustive-search flag and in-process solver cache took
     these two draws; they stay so the later draws, and with them every
     seed's config, keep their values. *)
  ignore (Util.Rng.int rng 4);
  ignore (Util.Rng.int rng 3);
  (* Exercise the parallel engine path too: it must be behaviorally
     invisible (bit-identical artifacts at any job count). *)
  let jobs = [| 1; 1; 2; 4 |].(Util.Rng.int rng 4) in
  let autotune_budget = if Util.Rng.int rng 4 = 0 then Some 32 else None in
  let use_dma_heuristic = Util.Rng.bool rng in
  let use_pe_heuristics = Util.Rng.bool rng in
  let double_buffer = Util.Rng.bool rng in
  let memory_strategy =
    if Util.Rng.int rng 4 = 0 then Dory.Memplan.No_reuse else Dory.Memplan.Reuse
  in
  {
    Htvm.Compile.platform;
    memory_strategy;
    double_buffer;
    use_pe_heuristics;
    use_dma_heuristic;
    autotune_budget;
    jobs;
    degraded_targets = [];
  }

(* --- chaos campaigns ---------------------------------------------------- *)

(* Chaos plans are recoverable by construction: only detected kinds
   (transfer drop/flip, weight-load flip, compute drop) plus stalls, at
   most one rule per site, and sparse [every]/[nth] triggers (never
   [always] or [p=...]) — so a retried occurrence can never re-fire and
   the default retry budget always recovers. Silent kinds (compute or
   memory flips) are deliberately absent from the default campaign: a
   [silent_corruption] verdict under [htvmc chaos] therefore always
   means the harness itself leaked one, not that the dice were hot. *)
let random_fault_plan seed =
  let rng = Util.Rng.create ((seed * 131) + 17) in
  let sparse () =
    if Util.Rng.int rng 4 = 0 then Fault.Plan.Nth (1 + Util.Rng.int rng 4)
    else Fault.Plan.Every (3 + Util.Rng.int rng 7)
  in
  let templates =
    [|
      (Fault.Plan.Dma_in, Fault.Plan.Drop);
      (Fault.Plan.Dma_in, Fault.Plan.Flip 1);
      (Fault.Plan.Dma_out, Fault.Plan.Drop);
      (Fault.Plan.Dma_out, Fault.Plan.Flip 1);
      (Fault.Plan.Weight_load, Fault.Plan.Flip 1);
      (Fault.Plan.Weight_load, Fault.Plan.Drop);
      (Fault.Plan.Compute None, Fault.Plan.Drop);
      (Fault.Plan.Compute None, Fault.Plan.Stall (64 + Util.Rng.int rng 512));
    |]
  in
  let n_rules = 1 + Util.Rng.int rng 3 in
  let rules =
    List.init n_rules (fun _ ->
        let site, kind = templates.(Util.Rng.int rng (Array.length templates)) in
        { Fault.Plan.site; trigger = sparse (); kind })
  in
  (* One rule per site: two rules on one site could fail an operation on
     consecutive occurrences and outrun the retry budget. *)
  let seen = Hashtbl.create 4 in
  let rules =
    List.filter
      (fun (r : Fault.Plan.rule) ->
        let k = Fault.Plan.site_label r.Fault.Plan.site in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      rules
  in
  { Fault.Plan.seed; rules }

let chaos_config seed =
  let cfg = random_config seed in
  let rng = Util.Rng.create ((seed * 97) + 3) in
  (* A quarter of the campaigns also take an accelerator offline, driving
     segments down the compiler's fallback ladder. *)
  let accels = cfg.Htvm.Compile.platform.Arch.Platform.accels in
  if Util.Rng.int rng 4 = 0 && accels <> [] then
    let victim = List.nth accels (Util.Rng.int rng (List.length accels)) in
    {
      cfg with
      Htvm.Compile.degraded_targets = [ victim.Arch.Accel.accel_name ];
    }
  else cfg
