type point = {
  elapsed_min : float;
  survivors : int;
  mean_residual_min : float;
  median_residual_min : float;
  p25_residual_min : float;
}

type result = {
  points : point list;
  survival_5_plus_5 : float;
  survival_10_plus_5 : float;
  repairable_share : float;
}

let paper_survival_5_plus_5 = 0.51
let paper_survival_10_plus_5 = 0.68
let paper_repairable_share = 0.80

let elapsed_grid = [ 0.; 1.; 2.; 3.; 5.; 7.; 10.; 15.; 20.; 25.; 30. ]

let run ~n ~seed () =
  let durations = Workloads.Outage_gen.durations ~seed ~n () in
  let points =
    List.filter_map
      (fun minutes ->
        match Lifeguard.Decide.Residual.at ~durations ~elapsed:(minutes *. 60.0) with
        | None -> None
        | Some s ->
            Some
              {
                elapsed_min = minutes;
                survivors = s.Lifeguard.Decide.Residual.count;
                mean_residual_min = s.Lifeguard.Decide.Residual.mean /. 60.0;
                median_residual_min = s.Lifeguard.Decide.Residual.median /. 60.0;
                p25_residual_min = s.Lifeguard.Decide.Residual.p25 /. 60.0;
              })
      elapsed_grid
  in
  let survival el =
    Lifeguard.Decide.Residual.survival_fraction ~durations ~elapsed:(el *. 60.0)
      ~horizon:300.0
  in
  (* Unavailability that remains after detection + isolation + convergence
     (~7 minutes), over total unavailability: what poisoning can win. *)
  let repairable =
    let threshold = 7.0 *. 60.0 in
    let total = Workloads.Outage_gen.total_unavailability durations in
    let saved =
      Array.fold_left
        (fun acc d -> if d >= threshold then acc +. (d -. threshold) else acc)
        0.0 durations
    in
    if total <= 0.0 then 0.0 else saved /. total
  in
  {
    points;
    survival_5_plus_5 = survival 5.0;
    survival_10_plus_5 = survival 10.0;
    repairable_share = repairable;
  }

let to_tables r =
  let summary =
    Stats.Table.create ~title:"Fig. 5 anchors (paper vs measured)"
      ~columns:[ "metric"; "paper"; "measured" ]
  in
  Stats.Table.add_rows summary
    [
      [
        "P(lasts 5 more min | lasted 5)";
        Stats.Table.cell_pct paper_survival_5_plus_5;
        Stats.Table.cell_pct r.survival_5_plus_5;
      ];
      [
        "P(lasts 5 more min | lasted 10)";
        Stats.Table.cell_pct paper_survival_10_plus_5;
        Stats.Table.cell_pct r.survival_10_plus_5;
      ];
      [
        "unavailability addressable after ~7 min";
        "up to " ^ Stats.Table.cell_pct paper_repairable_share;
        Stats.Table.cell_pct r.repairable_share;
      ];
    ];
  let curve =
    Stats.Table.create ~title:"Fig. 5 series: residual duration vs elapsed"
      ~columns:[ "elapsed (min)"; "survivors"; "mean (min)"; "median (min)"; "25th pct (min)" ]
  in
  List.iter
    (fun p ->
      Stats.Table.add_row curve
        [
          Stats.Table.cell_float ~decimals:0 p.elapsed_min;
          Stats.Table.cell_int p.survivors;
          Stats.Table.cell_float ~decimals:1 p.mean_residual_min;
          Stats.Table.cell_float ~decimals:1 p.median_residual_min;
          Stats.Table.cell_float ~decimals:1 p.p25_residual_min;
        ])
    r.points;
  [ summary; curve ]
