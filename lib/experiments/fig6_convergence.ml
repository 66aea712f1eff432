open Workloads

type series = { label : string; samples : float array; instant : float; single_update : float }

type result = {
  series : series list;
  global_median_prepend : float;
  global_p90_prepend : float;
  global_median_noprepend : float;
  global_p90_noprepend : float;
  poisons : int;
  u_affected : float;
  u_unaffected : float;
}

let paper =
  [
    ("prepend, no change: instant", 0.95);
    ("no prepend, no change: instant", 0.70);
    ("prepend: single update", 0.97);
    ("no prepend: single update", 0.64);
  ]

let mk_series label reports =
  let samples =
    Array.of_list (List.map (fun r -> r.Bgp.Convergence.convergence_time) reports)
  in
  {
    label;
    samples;
    instant = Bgp.Convergence.fraction_instant reports;
    single_update = Bgp.Convergence.fraction_single_update reports;
  }

(* One poisoning round, measured as per-peer convergence from the
   collector feed. The paper spaced announcements 90 minutes apart to
   avoid flap dampening; at minimum every MRAI window must expire so the
   poison propagates like a fresh event. *)
let poison_round mux ~target =
  let round = Poisoning.round mux ~settle:120.0 ~target ~sample:ignore in
  let reports =
    Bgp.Convergence.analyze mux.Scenarios.collector ~event_time:round.Poisoning.t0
      ~prefix:Scenarios.production_prefix ~affected:round.Poisoning.affected
  in
  (* Peers with no post-poison route (captives) are excluded, as in the
     paper's measurement. *)
  let reports = List.filter (fun r -> r.Bgp.Convergence.has_final_route) reports in
  let global = Bgp.Convergence.global_convergence_time reports in
  (reports, global)

let run ~ases ~max_poisons ~jobs ~seed () =
  (* Scout world: announce the baseline once to harvest which ASes are on
     collector paths, i.e. worth poisoning. *)
  let targets =
    let mux = Poisoning.mux ~ases ~seed () in
    Poisoning.converge_baseline mux;
    Poisoning.targets mux ~rng:(Prng.create ~seed:(seed + 2)) ~n:max_poisons
  in
  (* The experiment is embarrassingly parallel: each (baseline, target)
     poisoning is measured in its own world, forked from a template of
     the world with that baseline announced and converged, so trials
     share nothing and the trial list is a pure function of the
     parameters, never of [jobs]. *)
  let trials baseline =
    let template = Poisoning.template ~ases ~seed ~baseline () in
    List.map (fun target () -> poison_round (Template.fork template) ~target) targets
  in
  let collect outcomes =
    ( List.concat_map (fun (reports, _) -> reports) outcomes,
      List.filter_map (fun (_, global) -> global) outcomes )
  in
  let (prepend_reports, prepend_globals), (noprepend_reports, noprepend_globals) =
    match
      Runner.run_arms ~jobs
        [
          trials (fun origin -> Bgp.As_path.prepended ~origin ~copies:3);
          trials (fun origin -> Bgp.As_path.plain ~origin);
        ]
    with
    | [ prepend; noprepend ] -> (collect prepend, collect noprepend)
    | _ -> assert false
  in
  let split which reports =
    List.filter (fun r -> r.Bgp.Convergence.affected = which) reports
  in
  let pct arr p =
    if arr = [] then 0.0 else Stats.Descriptive.percentile (Array.of_list arr) p
  in
  let mean_updates_of which =
    Bgp.Convergence.mean_updates (split which prepend_reports)
  in
  {
    series =
      [
        mk_series "Prepend, no change" (split false prepend_reports);
        mk_series "No prepend, no change" (split false noprepend_reports);
        mk_series "Prepend, change" (split true prepend_reports);
        mk_series "No prepend, change" (split true noprepend_reports);
      ];
    u_affected = mean_updates_of true;
    u_unaffected = mean_updates_of false;
    global_median_prepend = pct prepend_globals 50.0;
    global_p90_prepend = pct prepend_globals 90.0;
    global_median_noprepend = pct noprepend_globals 50.0;
    global_p90_noprepend = pct noprepend_globals 90.0;
    poisons = List.length targets;
  }

let cdf_thresholds = [ 0.; 1.; 5.; 10.; 30.; 50.; 100.; 150.; 200.; 300.; 500. ]

let to_tables r =
  let anchors =
    Stats.Table.create ~title:"Fig. 6 anchors (paper vs measured)"
      ~columns:[ "metric"; "paper"; "measured" ]
  in
  let find label = List.find (fun s -> s.label = label) r.series in
  let p_nc = find "Prepend, no change" in
  let np_nc = find "No prepend, no change" in
  Stats.Table.add_rows anchors
    [
      [
        "prepend, no change: instant";
        Stats.Table.cell_pct (List.assoc "prepend, no change: instant" paper);
        Stats.Table.cell_pct p_nc.instant;
      ];
      [
        "no prepend, no change: instant";
        Stats.Table.cell_pct (List.assoc "no prepend, no change: instant" paper);
        Stats.Table.cell_pct np_nc.instant;
      ];
      [
        "prepend: single update (unaffected)";
        Stats.Table.cell_pct (List.assoc "prepend: single update" paper);
        Stats.Table.cell_pct p_nc.single_update;
      ];
      [
        "no prepend: single update (unaffected)";
        Stats.Table.cell_pct (List.assoc "no prepend: single update" paper);
        Stats.Table.cell_pct np_nc.single_update;
      ];
      [
        "global convergence median (s)";
        "91 vs 133";
        Printf.sprintf "%.0f vs %.0f" r.global_median_prepend r.global_median_noprepend;
      ];
      [
        "global convergence p90 (s)";
        "200 vs 226";
        Printf.sprintf "%.0f vs %.0f" r.global_p90_prepend r.global_p90_noprepend;
      ];
      [
        "updates per poison, affected / unaffected routers (U)";
        "2.03 / 1.07";
        Printf.sprintf "%.2f / %.2f" r.u_affected r.u_unaffected;
      ];
    ];
  let curve =
    Stats.Table.create ~title:"Fig. 6 series: CDF of peer convergence time"
      ~columns:("seconds" :: List.map (fun s -> s.label) r.series)
  in
  List.iter
    (fun threshold ->
      let cells =
        List.map
          (fun s ->
            if Array.length s.samples = 0 then "-"
            else
              Stats.Table.cell_float ~decimals:3
                (Stats.Descriptive.fraction (fun t -> t <= threshold) s.samples))
          r.series
      in
      Stats.Table.add_row curve (Stats.Table.cell_float ~decimals:0 threshold :: cells))
    cdf_thresholds;
  [ anchors; curve ]
