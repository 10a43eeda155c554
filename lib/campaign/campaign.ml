(* Sustained chaos-under-load campaigns (see campaign.mli).

   One Serve.run per fault-rate point, everything but the plan held
   fixed. Curve fields come exclusively from the predicted plane of the
   underlying runs, so the campaign tally inherits the serve tally's
   workers/jobs byte-identity. *)

module J = Trace.Json

type config = {
  c_serve : Serve.config;
  c_rates : float list;
  c_site : string;
  c_kind : string;
  c_fault_seed : int;
}

let default =
  {
    c_serve = { Serve.default with health = Some Health.default };
    c_rates = [ 0.002; 0.01; 0.05 ];
    c_site = "dma_in";
    c_kind = "flip";
    c_fault_seed = 7;
  }

type point = {
  pt_rate : float;
  pt_plan : Fault.Plan.t;
  pt_report : Serve.report;
}

type t = { t_config : config; t_points : point list }

let rate_label rate = Printf.sprintf "%.6g" rate

let plan_of_rate cfg rate =
  Fault.Plan.of_string
    (Printf.sprintf "seed=%d,%s@p=%.6g:%s" cfg.c_fault_seed cfg.c_site rate
       cfg.c_kind)

let validate cfg =
  if cfg.c_rates = [] then Error "campaign: at least one rate is required"
  else if
    List.exists
      (fun r -> (not (Float.is_finite r)) || r < 0.0 || r > 1.0)
      cfg.c_rates
  then Error "campaign: rates must be in [0, 1]"
  else if
    List.length (List.sort_uniq compare cfg.c_rates)
    <> List.length cfg.c_rates
  then Error "campaign: rates must be distinct"
  else
    (* Surface an unparseable site/kind spec before any point runs. *)
    match plan_of_rate cfg (List.hd cfg.c_rates) with
    | Error msg -> Error ("campaign: " ^ msg)
    | Ok _ -> Result.map_error Serve.mt_error_to_string (Serve.validate cfg.c_serve)

let run ?metrics cfg artifact ~graph =
  match validate cfg with
  | Error _ as e -> e
  | Ok () -> (
      let reg = match metrics with Some r -> r | None -> Metrics.create () in
      let run_point rate =
        match plan_of_rate cfg rate with
        | Error msg -> Error ("campaign: " ^ msg)
        | Ok plan -> (
            let serve_cfg = { cfg.c_serve with Serve.plan } in
            match Serve.run serve_cfg artifact ~graph with
            | report -> Ok { pt_rate = rate; pt_plan = plan; pt_report = report }
            | exception Invalid_argument msg -> Error msg)
      in
      let rec sweep acc = function
        | [] -> Ok (List.rev acc)
        | rate :: rest -> (
            match run_point rate with
            | Error _ as e -> e
            | Ok pt -> sweep (pt :: acc) rest)
      in
      match sweep [] cfg.c_rates with
      | Error _ as e -> e
      | Ok points ->
          (* The curve, as rate-labelled cycles-track counters. Every
             value is predicted-plane, so the track stays byte-identical
             at any workers/jobs. *)
          List.iter
            (fun pt ->
              let r = pt.pt_report in
              let labels = [ ("rate", rate_label pt.pt_rate) ] in
              let c name help = Metrics.counter reg ~labels ~help name in
              Metrics.inc
                (c "htvm_campaign_served_total" "Served requests per rate point.")
                r.Serve.r_served;
              Metrics.inc
                (c "htvm_campaign_rejected_total"
                   "Rejected (shed) requests per rate point.")
                r.Serve.r_rejected;
              Metrics.inc
                (c "htvm_campaign_aborted_total"
                   "Aborted requests per rate point.")
                r.Serve.r_aborted;
              Metrics.inc
                (c "htvm_campaign_slo_pred_violations_total"
                   "Predicted SLO violations per rate point.")
                (match r.Serve.r_slo with
                | Some s -> s.Serve.s_pred_violations
                | None -> 0);
              match r.Serve.r_health with
              | None -> ()
              | Some h ->
                  Metrics.inc
                    (c "htvm_campaign_readmissions_total"
                       "Predicted-plane readmissions per rate point.")
                    h.Serve.h_pred_readmissions;
                  Metrics.inc
                    (c "htvm_campaign_relapses_total"
                       "Predicted-plane relapses per rate point.")
                    h.Serve.h_pred_relapses;
                  Metrics.inc
                    (c "htvm_campaign_fail_open_total"
                       "Predicted fail-open dispatches per rate point.")
                    h.Serve.h_pred_fail_open;
                  Metrics.inc
                    (c "htvm_campaign_health_shed_total"
                       "Health-admission sheds per rate point.")
                    h.Serve.h_shed)
            points;
          Ok { t_config = cfg; t_points = points })

(* --- rendering -------------------------------------------------------- *)

let point_fields pt =
  let r = pt.pt_report in
  let slo_pred =
    match r.Serve.r_slo with Some s -> s.Serve.s_pred_violations | None -> 0
  in
  let h_read, h_rel, h_fo, h_shed =
    match r.Serve.r_health with
    | Some h ->
        ( h.Serve.h_pred_readmissions,
          h.Serve.h_pred_relapses,
          h.Serve.h_pred_fail_open,
          h.Serve.h_shed )
    | None -> (0, 0, 0, 0)
  in
  (slo_pred, h_read, h_rel, h_fo, h_shed)

let tally t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "htvm-campaign-tally v1\n";
  let base = t.t_config.c_serve in
  Buffer.add_string buf
    (Printf.sprintf
       "site %s kind %s fault-seed %d rates %s\n" t.t_config.c_site
       t.t_config.c_kind t.t_config.c_fault_seed
       (String.concat "," (List.map rate_label t.t_config.c_rates)));
  Buffer.add_string buf
    (Printf.sprintf
       "seed %d requests %d batch %d queue-depth %d retry-budget %d health %s \
        slo %s\n"
       base.Serve.seed base.Serve.requests base.Serve.max_batch
       base.Serve.queue_depth base.Serve.retry_budget
       (match base.Serve.health with Some _ -> "on" | None -> "off")
       (match base.Serve.slo_sojourn with
       | Some tgt -> string_of_int tgt
       | None -> "off"));
  List.iter
    (fun pt ->
      let r = pt.pt_report in
      let slo_pred, h_read, h_rel, h_fo, h_shed = point_fields pt in
      Buffer.add_string buf
        (Printf.sprintf
           "rate %s served=%d rejected=%d aborted=%d shed-rate=%.4f \
            slo-pred=%d readmissions=%d relapses=%d fail-open=%d \
            health-shed=%d service-p99=%d\n"
           (rate_label pt.pt_rate) r.Serve.r_served r.Serve.r_rejected
           r.Serve.r_aborted r.Serve.r_shed_rate slo_pred h_read h_rel h_fo
           h_shed r.Serve.r_service.Serve.p99))
    t.t_points;
  Buffer.contents buf

let summary t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "campaign: %d rate point(s) on site %s (%s), %d request(s) each\n"
       (List.length t.t_points) t.t_config.c_site t.t_config.c_kind
       t.t_config.c_serve.Serve.requests);
  List.iter
    (fun pt ->
      let r = pt.pt_report in
      let slo_pred, h_read, h_rel, h_fo, h_shed = point_fields pt in
      Buffer.add_string buf
        (Printf.sprintf
           "rate %-8s served %3d, rejected %3d, aborted %3d, slo-pred %3d, \
            readmissions %2d, relapses %2d, fail-open %2d, health-shed %2d\n"
           (rate_label pt.pt_rate) r.Serve.r_served r.Serve.r_rejected
           r.Serve.r_aborted slo_pred h_read h_rel h_fo h_shed))
    t.t_points;
  Buffer.contents buf

let to_json t =
  let point_json pt =
    let r = pt.pt_report in
    let slo_pred, h_read, h_rel, h_fo, h_shed = point_fields pt in
    J.Obj
      [
        ("rate", J.Float pt.pt_rate);
        ("plan", J.Str (Fault.Plan.to_string pt.pt_plan));
        ("served", J.Int r.Serve.r_served);
        ("rejected", J.Int r.Serve.r_rejected);
        ("aborted", J.Int r.Serve.r_aborted);
        ("shed_rate", J.Float r.Serve.r_shed_rate);
        ("slo_pred_violations", J.Int slo_pred);
        ("readmissions", J.Int h_read);
        ("relapses", J.Int h_rel);
        ("fail_open", J.Int h_fo);
        ("health_shed", J.Int h_shed);
        ("service_p99", J.Int r.Serve.r_service.Serve.p99);
      ]
  in
  J.Obj
    [
      ("site", J.Str t.t_config.c_site);
      ("kind", J.Str t.t_config.c_kind);
      ("fault_seed", J.Int t.t_config.c_fault_seed);
      ("seed", J.Int t.t_config.c_serve.Serve.seed);
      ("requests", J.Int t.t_config.c_serve.Serve.requests);
      ("health", J.Bool (t.t_config.c_serve.Serve.health <> None));
      ( "slo_target",
        match t.t_config.c_serve.Serve.slo_sojourn with
        | Some tgt -> J.Int tgt
        | None -> J.Null );
      ("points", J.List (List.map point_json t.t_points));
    ]
