(* Shared fault-consultation logic for the executors (see resilience.mli).

   Design invariant: detected faults never mutate simulated memory. The
   modeled runtime checksums DMA/weight payloads and only commits them
   once verified (and a watchdog-killed compute is simply re-run), so the
   functional execution already performed by the caller stands for the
   final successful attempt; a detected fault costs cycles, nothing else.
   Only silent faults corrupt state, through the [corrupt] callback. *)

module Plan = Fault.Plan
module Session = Fault.Session

type t = {
  fs : Session.t option;
  budget : int;
  counters : Counters.t;
  events : (string * int) list ref; (* reverse chronological *)
}

let make ?faults ~retry_budget counters =
  let fs =
    match faults with Some fs when Session.active fs -> Some fs | _ -> None
  in
  { fs; budget = retry_budget; counters; events = ref [] }

let events t = List.rev !(t.events)
let note t name cycles = t.events := (name, cycles) :: !(t.events)

let guard t ~site ~cycles ?(corrupt = fun _ _ -> ()) ~flip_detected () =
  match t.fs with
  | None -> ()
  | Some fs ->
      let label = Plan.site_label site in
      let rec attempt n =
        let kinds = Session.draw fs site in
        let detected = ref false in
        List.iter
          (fun k ->
            match (k : Plan.kind) with
            | Plan.Stall cyc ->
                Session.note_stall fs ~cycles:cyc;
                t.counters.Counters.fault_stall <-
                  t.counters.Counters.fault_stall + cyc;
                note t ("stall:" ^ label) cyc
            | Plan.Drop -> detected := true
            | Plan.Flip bits ->
                if flip_detected then detected := true
                else begin
                  corrupt fs bits;
                  Session.note_silent fs;
                  t.counters.Counters.faults_silent <-
                    t.counters.Counters.faults_silent + 1;
                  note t ("fault:" ^ label ^ " silent flip") 0
                end)
          kinds;
        if !detected then begin
          Session.note_detected fs;
          t.counters.Counters.faults_detected <-
            t.counters.Counters.faults_detected + 1;
          if n > t.budget then
            raise (Session.Unrecovered { site = label; attempts = n });
          let cost = Session.backoff n + cycles in
          Session.note_retry fs ~cycles:cost;
          t.counters.Counters.retries <- t.counters.Counters.retries + 1;
          t.counters.Counters.retry_cycles <-
            t.counters.Counters.retry_cycles + cost;
          note t ("retry:" ^ label) cost;
          attempt (n + 1)
        end
      in
      attempt 1

let mem_rot t ~site ~mem =
  match t.fs with
  | None -> ()
  | Some fs ->
      let label = Plan.site_label site in
      List.iter
        (fun k ->
          match (k : Plan.kind) with
          | Plan.Stall cyc ->
              Session.note_stall fs ~cycles:cyc;
              t.counters.Counters.fault_stall <-
                t.counters.Counters.fault_stall + cyc;
              note t ("stall:" ^ label) cyc
          | Plan.Drop -> () (* meaningless here; [Plan.of_string] refuses it *)
          | Plan.Flip bits ->
              let hwm = Mem.high_water mem in
              if hwm > 0 then begin
                for _ = 1 to max 1 bits do
                  Mem.flip_bit mem ~off:(Session.rand_int fs hwm)
                    ~bit:(Session.rand_int fs 8)
                done;
                Session.note_silent fs;
                t.counters.Counters.faults_silent <-
                  t.counters.Counters.faults_silent + 1;
                note t ("fault:" ^ label ^ " bit rot") 0
              end)
        (Session.draw fs site)

let emit_events t trace ~ts =
  if Trace.enabled trace then begin
    let cur = ref ts in
    List.iter
      (fun (name, cycles) ->
        Trace.interval trace ~track:"fault" ~ts:!cur ~dur:cycles name;
        cur := !cur + cycles)
      (events t)
  end

let flip_in_mem fs mem ~base ~bytes bits =
  if bytes > 0 then
    for _ = 1 to max 1 bits do
      Mem.flip_bit mem
        ~off:(base + Session.rand_int fs bytes)
        ~bit:(Session.rand_int fs 8)
    done
