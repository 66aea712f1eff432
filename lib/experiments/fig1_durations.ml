(** Figure 1: outage durations vs. their contribution to unavailability.

    The paper monitored 250 routers from EC2 for six weeks and found
    10,308 partial outages: more than 90% lasted at most 10 minutes, yet
    84% of the total unavailability came from the outages longer than
    that. We regenerate the figure from the calibrated outage model. *)

type result = {
  n : int;
  median_s : float;
  fraction_events_le_10min : float;
  unavailability_share_gt_10min : float;
  events_cdf : (float * float) list;  (** (minutes, fraction of events) *)
  unavailability_cdf : (float * float) list;
      (** (minutes, fraction of total unavailability) *)
}

let cdf_points =
  (* Log-spaced sample positions in minutes, matching the figure's x axis
     (1.5 min .. one week). *)
  [ 1.5; 2.; 3.; 5.; 7.; 10.; 15.; 30.; 60.; 120.; 300.; 600.; 1440.; 4320.; 10080. ]

let run ?(n = 10308) ~seed () =
  let durations = Workloads.Outage_gen.durations ~seed ~n () in
  let minutes = Array.map (fun s -> s /. 60.0) durations in
  let events = Stats.Ecdf.of_samples minutes in
  let unavailability = Stats.Ecdf.weighted ~values:minutes ~weights:minutes in
  {
    n;
    median_s = Stats.Descriptive.median durations;
    fraction_events_le_10min = Stats.Ecdf.eval events 10.0;
    unavailability_share_gt_10min = 1.0 -. Stats.Ecdf.eval unavailability 10.0;
    events_cdf = Stats.Ecdf.series_at events cdf_points;
    unavailability_cdf = Stats.Ecdf.series_at unavailability cdf_points;
  }

let to_tables r =
  let summary =
    Stats.Table.create ~title:"Fig. 1 summary (paper vs measured)"
      ~columns:[ "metric"; "paper"; "measured" ]
  in
  Stats.Table.add_rows summary
    [
      [ "outages"; "10308"; Stats.Table.cell_int r.n ];
      [ "median duration (s)"; "~90 (floor)"; Stats.Table.cell_float ~decimals:0 r.median_s ];
      [
        "fraction of events <= 10 min";
        ">= 0.90";
        Stats.Table.cell_pct r.fraction_events_le_10min;
      ];
      [
        "unavailability from > 10 min";
        "0.84";
        Stats.Table.cell_pct r.unavailability_share_gt_10min;
      ];
    ];
  let curve =
    Stats.Table.create ~title:"Fig. 1 series: CDF by outage duration"
      ~columns:[ "minutes"; "fraction of events"; "fraction of unavailability" ]
  in
  List.iter2
    (fun (x, ev) (_, un) ->
      Stats.Table.add_row curve
        [
          Stats.Table.cell_float ~decimals:1 x;
          Stats.Table.cell_float ~decimals:3 ev;
          Stats.Table.cell_float ~decimals:3 un;
        ])
    r.events_cdf r.unavailability_cdf;
  [ summary; curve ]
