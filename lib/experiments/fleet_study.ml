(** A day of continuous fleet operations, at deployment scale.

    Every other experiment injects one failure and watches one pipeline.
    This one runs {!Fleet.Service} — Poisson outage arrivals, budgeted
    monitoring, concurrent isolation with retry/backoff, damping-paced
    remediation — over enough targets that the paper's Table 2 load
    model can be checked against a {e measured} update stream rather
    than a closed-form cell.

    The fleet shards into share-nothing worlds of
    [config.target_count] targets each (a decomposition fixed by
    [targets], never by [jobs]), so the study parallelises across
    domains while every table stays byte-identical for any worker
    count. Worlds run the same observation window in parallel, so
    per-day rates (injected outages, announced updates) merge as plain
    sums and repair latencies pool into one CDF. *)

type result = {
  shards : int;
  targets : int;
  days : float;
  injected : int;
  drawn : int;
  unplaceable : int;
  detected : int;
  repaired : int;
  stood_down : int;
  gave_up : int;
  unfinished : int;
  poisons : int;
  unpoisons : int;
  time_to_repair : float list;  (** Pooled across worlds, ascending. *)
  time_to_confirm : float list;  (** Pooled across worlds, ascending. *)
  monitor_pairs : int;
  monitor_skipped : int;
  probes_sent : int;
  budget_granted : int;
  budget_denied : int;
  isolation_retries : int;
  vp_crashes : int;
  lost_probes : int;
  stale_refreshes : int;
  collector_updates : int;
  injected_h15 : float;
  measured_updates_per_day : float;
  predicted_updates_per_day : float;
  reannounced : int;
  rolled_back : int;
  breaker_trips : int;
  session_flaps : int;
  link_failures : int;
  router_crashes : int;
  updates_dropped : int;
  updates_duplicated : int;
  plan_hits : int;
  plan_misses : int;
  plan_invalidations : int;
  plan_demotions : int;
}

let worlds ~config ~targets ~seed =
  let per_world = max 1 config.Fleet.Service.target_count in
  let n = (targets + per_world - 1) / per_world in
  List.init n (fun i ->
      (* The last world takes the remainder so the fleet monitors
         exactly [targets] networks. *)
      let count = if i = n - 1 then targets - (per_world * (n - 1)) else per_world in
      fun () ->
        Fleet.Service.run ~config:{ config with Fleet.Service.target_count = count }
          ~seed:(seed + i) ())

let merge ~targets ~days reports =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let sumf f = List.fold_left (fun acc r -> acc +. f r) 0.0 reports in
  let pool f = List.sort Float.compare (List.concat_map f reports) in
  let open Fleet.Service in
  {
    shards = List.length reports;
    targets;
    days;
    injected = sum (fun r -> r.injected);
    drawn = sum (fun r -> r.drawn);
    unplaceable = sum (fun r -> r.unplaceable);
    detected = sum (fun r -> r.detected);
    repaired = sum (fun r -> r.repaired);
    stood_down = sum (fun r -> r.stood_down);
    gave_up = sum (fun r -> r.gave_up);
    unfinished = sum (fun r -> r.unfinished);
    poisons = sum (fun r -> r.poisons);
    unpoisons = sum (fun r -> r.unpoisons);
    time_to_repair = pool (fun r -> r.time_to_repair);
    time_to_confirm = pool (fun r -> r.time_to_confirm);
    monitor_pairs = sum (fun r -> r.monitor_pairs);
    monitor_skipped = sum (fun r -> r.monitor_skipped);
    probes_sent = sum (fun r -> r.probes_sent);
    budget_granted = sum (fun r -> r.budget_granted);
    budget_denied = sum (fun r -> r.budget_denied);
    isolation_retries = sum (fun r -> r.isolation_retries);
    vp_crashes = sum (fun r -> r.vp_crashes);
    lost_probes = sum (fun r -> r.lost_probes);
    stale_refreshes = sum (fun r -> r.stale_refreshes);
    collector_updates = sum (fun r -> r.collector_updates);
    (* Worlds observe the same window in parallel, so fleet-wide daily
       rates are the sums of the per-world rates, and the Table 2
       prediction (linear in its H(15) anchor) sums the same way. *)
    injected_h15 = sumf (fun r -> r.injected_h15);
    measured_updates_per_day = sumf (fun r -> r.measured_updates_per_day);
    predicted_updates_per_day = sumf (fun r -> r.predicted_updates_per_day);
    reannounced = sum (fun r -> r.reannounced);
    rolled_back = sum (fun r -> r.rolled_back);
    breaker_trips = sum (fun r -> r.breaker_trips);
    session_flaps = sum (fun r -> r.session_flaps);
    link_failures = sum (fun r -> r.link_failures);
    router_crashes = sum (fun r -> r.router_crashes);
    updates_dropped = sum (fun r -> r.updates_dropped);
    updates_duplicated = sum (fun r -> r.updates_duplicated);
    plan_hits = sum (fun r -> r.plan_hits);
    plan_misses = sum (fun r -> r.plan_misses);
    plan_invalidations = sum (fun r -> r.plan_invalidations);
    plan_demotions = sum (fun r -> r.plan_demotions);
  }

let run ?(config = Fleet.Service.default_config) ?(targets = 250) ?(jobs = 1) ~seed () =
  if targets <= 0 then invalid_arg "Fleet_study.run: targets must be positive";
  merge ~targets ~days:(config.Fleet.Service.duration /. 86400.0)
    (Runner.run_trials ~jobs (worlds ~config ~targets ~seed))

let ttr_cdf r =
  match r.time_to_repair with
  | [] -> None
  | samples -> Some (Stats.Ecdf.of_samples (Array.of_list samples))

let to_tables r =
  let ops =
    Stats.Table.create ~title:"Fleet operations: one observation window (paper vs measured)"
      ~columns:[ "metric"; "paper"; "measured" ]
  in
  let pct num den =
    if den = 0 then "-" else Stats.Table.cell_pct (float_of_int num /. float_of_int den)
  in
  Stats.Table.add_rows ops
    [
      [ "observation window (days)"; "-"; Stats.Table.cell_float ~decimals:2 r.days ];
      [ "worlds x targets"; "-"; Printf.sprintf "%d x ~%d" r.shards (r.targets / r.shards) ];
      [ "outages injected"; "-"; Stats.Table.cell_int r.injected ];
      [ "  >= 15 min (H15, per day)"; "-"; Stats.Table.cell_float ~decimals:1 r.injected_h15 ];
      [ "pipelines opened (detections)"; "-"; Stats.Table.cell_int r.detected ];
      [ "  repaired (sentinel-confirmed)"; "-"; Stats.Table.cell_int r.repaired ];
      [ "  stood down (resolved/unpoisonable)"; "-"; Stats.Table.cell_int r.stood_down ];
      [ "  gave up (retries/timeout)"; "-"; Stats.Table.cell_int r.gave_up ];
      [ "  open at horizon"; "-"; Stats.Table.cell_int r.unfinished ];
      [
        "terminal-state share";
        "every pipeline terminates";
        pct (r.repaired + r.stood_down + r.gave_up) r.detected;
      ];
    ];
  let spend =
    Stats.Table.create ~title:"Fleet probe spend under the budget"
      ~columns:[ "metric"; "paper"; "measured" ]
  in
  Stats.Table.add_rows spend
    [
      [ "monitor ping pairs sent"; "-"; Stats.Table.cell_int r.monitor_pairs ];
      [ "monitor rounds budget-refused"; "-"; Stats.Table.cell_int r.monitor_skipped ];
      [ "data-plane probes (all)"; "-"; Stats.Table.cell_int r.probes_sent ];
      [ "budget grants / denials"; "-";
        Printf.sprintf "%d / %d" r.budget_granted r.budget_denied ];
      [ "isolation retries"; "-"; Stats.Table.cell_int r.isolation_retries ];
      [ "chaos: VP crashes"; "-"; Stats.Table.cell_int r.vp_crashes ];
      [ "chaos: probe pairs lost"; "-"; Stats.Table.cell_int r.lost_probes ];
      [ "chaos: stale atlas refreshes"; "-"; Stats.Table.cell_int r.stale_refreshes ];
    ];
  let ttr =
    Stats.Table.create
      ~title:"Time to repair, detection -> sentinel-confirmed (pooled CDF)"
      ~columns:[ "quantile"; "seconds" ]
  in
  (match ttr_cdf r with
  | None -> Stats.Table.add_row ttr [ "(no repaired outages)"; "-" ]
  | Some cdf ->
      List.iter
        (fun q ->
          Stats.Table.add_row ttr
            [
              Stats.Table.cell_pct ~decimals:0 q;
              Stats.Table.cell_float ~decimals:0 (Stats.Ecdf.quantile cdf q);
            ])
        [ 0.25; 0.5; 0.75; 0.9; 1.0 ]);
  let load =
    Stats.Table.create ~title:"Measured daily update load vs Table 2 model"
      ~columns:[ "metric"; "paper"; "measured" ]
  in
  let ratio =
    if r.predicted_updates_per_day > 0.0 then
      r.measured_updates_per_day /. r.predicted_updates_per_day
    else 0.0
  in
  Stats.Table.add_rows load
    [
      [ "poisons / unpoisons announced"; "-";
        Printf.sprintf "%d / %d" r.poisons r.unpoisons ];
      [ "route-collector records"; "-"; Stats.Table.cell_int r.collector_updates ];
      [
        "updates per day, measured";
        "-";
        Stats.Table.cell_float ~decimals:1 r.measured_updates_per_day;
      ];
      [
        "updates per day, Table 2 model";
        "(I*T*P(d) anchored at this run's H15)";
        Stats.Table.cell_float ~decimals:1 r.predicted_updates_per_day;
      ];
      [ "measured / modelled"; "within 2x"; Stats.Table.cell_float ~decimals:2 ratio ];
    ];
  [ ops; spend; ttr; load ]
