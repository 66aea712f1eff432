open Workloads

type result = {
  days : float;
  injected : int;
  detected : int;
  partial : int;
  h5 : float;
  h15 : float;
  h60 : float;
  ratio_5_over_15 : float;
  ratio_60_over_15 : float;
  probes : int;
}

let paper_ratio_5_over_15 = 783.0 /. 275.0
let paper_ratio_60_over_15 = 115.0 /. 275.0

(* Silent failures injected per simulated day. *)
let failures_per_day = 18.0

type shard_result = {
  s_injected : int;
  s_detected : int;
  s_partial : int;
  s_h5 : float;
  s_h15 : float;
  s_h60 : float;
  s_probes : int;
}

(* One shard: [days] simulated days of monitoring on its own view of the
   world, with its own PRNG. Monitoring only probes the routes that exist
   and the injected failures are [Data_only], so the shard's events (probe
   rounds, failure arrivals and expiries) run on the view's engine and its
   failures live in the view's set. Incident rates merge linearly across
   shards (each shard's H(d) is a per-day rate over its own window), so a
   week shards into independent days. *)
let run_shard ~days ~seed ~shard bed =
  let rng = Prng.create ~seed:(seed + 6 + (977 * shard)) in
  let engine = bed.Scenarios.engine in
  let central = List.hd bed.Scenarios.vantage_points in
  let vps = List.tl bed.Scenarios.vantage_points in
  let hubble =
    Measurement.Hubble.create ~env:bed.Scenarios.probe ~engine ~central
      ~vantage_points:vps ~targets:bed.Scenarios.targets ()
  in
  (* Poisson failure arrivals; each failure sits on the live path between
     the central site and a random target, lasts a calibrated duration,
     and is removed on expiry. *)
  let horizon = days *. 86400.0 in
  let t0 = Sim.Engine.now engine in
  let arrivals = Arrivals.create () in
  Arrivals.start arrivals ~rng ~bed ~src:central ~targets:bed.Scenarios.targets
    ~mean_interarrival:(86400.0 /. failures_per_day) ~until:(t0 +. horizon) ();
  Sim.Engine.run ~until:(t0 +. horizon) engine;
  let incidents = Measurement.Hubble.incidents hubble in
  let detected = List.length incidents in
  let partial = List.length (List.filter Measurement.Hubble.is_poisonable incidents) in
  let h d = Measurement.Hubble.h_of_d hubble ~observed_days:days ~d_minutes:d in
  {
    s_injected = Arrivals.injected_count arrivals;
    s_detected = detected;
    s_partial = partial;
    s_h5 = h 5.0;
    s_h15 = h 15.0;
    s_h60 = h 60.0;
    s_probes = Measurement.Hubble.probe_count hubble;
  }

let run ~ases ~days ~jobs ~seed () =
  (* Shard the observation window into roughly one-day independent
     simulations — a decomposition fixed by [days], never by [jobs]. *)
  let shards = max 1 (int_of_float (ceil days)) in
  let shard_days = days /. float_of_int shards in
  (* Monitoring probes run between the central site, the vantage points
     and the targets only, so the world announces just those ASes'
     infrastructure prefixes. Every shard reads the same converged
     world. *)
  let world =
    Scenarios.planetlab ~ases ~sites:14 ~target_count:20 ~infrastructure:Scenarios.Sites ~seed ()
  in
  let results =
    Runner.run_views ~jobs world
      (List.init shards (fun shard -> run_shard ~days:shard_days ~seed ~shard))
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 results in
  (* Each shard's H(d) is a per-day rate over shard_days; equal windows
     merge as a plain mean. *)
  let mean_h f =
    List.fold_left (fun acc s -> acc +. f s) 0.0 results /. float_of_int shards
  in
  let h5 = mean_h (fun s -> s.s_h5)
  and h15 = mean_h (fun s -> s.s_h15)
  and h60 = mean_h (fun s -> s.s_h60) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  {
    days;
    injected = sum (fun s -> s.s_injected);
    detected = sum (fun s -> s.s_detected);
    partial = sum (fun s -> s.s_partial);
    h5;
    h15;
    h60;
    ratio_5_over_15 = ratio h5 h15;
    ratio_60_over_15 = ratio h60 h15;
    probes = sum (fun s -> s.s_probes);
  }

let to_tables r =
  let t =
    Stats.Table.create ~title:"Hubble-style monitoring week: deriving H(d) (paper vs measured)"
      ~columns:[ "metric"; "paper"; "measured" ]
  in
  Stats.Table.add_rows t
    [
      [ "observation window (days)"; "-"; Stats.Table.cell_float ~decimals:0 r.days ];
      [ "failures injected"; "-"; Stats.Table.cell_int r.injected ];
      [ "incidents detected"; "-"; Stats.Table.cell_int r.detected ];
      [
        "partial (poisonable) share";
        "79% of EC2 outages were partial";
        (if r.detected = 0 then "-"
         else Stats.Table.cell_pct (float_of_int r.partial /. float_of_int r.detected));
      ];
      [ "H(5) per day"; "-"; Stats.Table.cell_float r.h5 ];
      [ "H(15) per day"; "(anchor: 253/day at Hubble scale)"; Stats.Table.cell_float r.h15 ];
      [ "H(60) per day"; "-"; Stats.Table.cell_float r.h60 ];
      [
        "H(5)/H(15)";
        Stats.Table.cell_float paper_ratio_5_over_15;
        Stats.Table.cell_float r.ratio_5_over_15;
      ];
      [
        "H(60)/H(15)";
        Stats.Table.cell_float paper_ratio_60_over_15;
        Stats.Table.cell_float r.ratio_60_over_15;
      ];
      [ "probe packets spent"; "-"; Stats.Table.cell_int r.probes ];
    ];
  [ t ]
