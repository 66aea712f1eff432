open Net
open Workloads

type case = {
  diagnosis : Lifeguard.Isolation.diagnosis;
  correct : bool;
  direction_correct : bool;
  traceroute_differs : bool;
}

type result = {
  cases : case list;
  isolated : int;
  consistent : int;
  fraction_consistent : float;
  fraction_direction_correct : float;
  fraction_traceroute_differs : float;
  mean_probes : float;
  mean_elapsed : float;
}

let paper_fraction_consistent = 0.93
let paper_fraction_traceroute_differs = 0.40

let shard_count = 8

(* One shard: its own view of the world + PRNG hunting [quota] isolatable
   failures. The shard decomposition is fixed (a pure function of
   [failure_count]), so results don't depend on [jobs]. Isolation only
   probes the routes that exist, and the failures it places are
   [Data_only] (they live in the view's own failure set), so a view is
   all a shard needs. *)
let run_shard ~seed ~shard ~quota bed =
  let rng = Prng.create ~seed:(seed + 5 + (131 * shard)) in
  let sites = Array.of_list bed.Scenarios.vantage_points in
  let responsiveness = Measurement.Responsiveness.create () in
  Measurement.Responsiveness.configure_silent_fraction responsiveness
    (Prng.split rng) bed.Scenarios.graph ~fraction:0.05;
  let atlas = Measurement.Atlas.create () in
  (* Split sites: LIFEGUARD's vantage points vs monitored targets, as in
     the paper's disjoint PlanetLab sets. *)
  let n = Array.length sites in
  let vps = Array.to_list (Array.sub sites 0 (n / 2)) in
  let targets = Array.to_list (Array.sub sites (n / 2) (n - (n / 2))) in
  Measurement.Atlas.refresh_all atlas bed.Scenarios.probe ~vps ~dsts:targets ~now:0.0;
  let ctx =
    {
      Lifeguard.Isolation.env = bed.Scenarios.probe;
      atlas;
      responsiveness;
      vantage_points = vps;
      source_overrides = [];
    }
  in
  let cases = ref [] in
  let attempts = ref 0 in
  while List.length !cases < quota && !attempts < quota * 4 do
    incr attempts;
    let src = Prng.pick_list rng vps in
    let dst = Prng.pick_list rng targets in
    let shape = Outage_gen.shape rng in
    match Scenarios.Placement.on_path rng bed ~src ~dst ~shape () with
    | None -> ()
    | Some placed ->
        Dataplane.Failure.inject bed.Scenarios.net bed.Scenarios.failures
          placed.Scenarios.Placement.spec;
        let diagnosis = Lifeguard.Isolation.isolate ctx ~src ~dst in
        Dataplane.Failure.heal bed.Scenarios.net bed.Scenarios.failures
          placed.Scenarios.Placement.spec;
        let truth = placed.Scenarios.Placement.location in
        let far = placed.Scenarios.Placement.far_side in
        let blamed = Lifeguard.Isolation.blamed_as diagnosis.Lifeguard.Isolation.blame in
        let correct =
          match blamed with
          | Some a ->
              Asn.equal a truth
              ||
              (match far with
              | Some f -> Asn.equal a f
              | None -> false)
          | None -> false
        in
        let direction_correct =
          match (shape.Outage_gen.direction, diagnosis.Lifeguard.Isolation.direction) with
          | Outage_gen.Reverse, Lifeguard.Isolation.Reverse_failure
          | Outage_gen.Forward, Lifeguard.Isolation.Forward_failure
          | Outage_gen.Bidirectional, Lifeguard.Isolation.Bidirectional ->
              true
          | _ -> false
        in
        let traceroute_differs =
          match (blamed, diagnosis.Lifeguard.Isolation.traceroute_blame) with
          | Some b, Some t -> not (Asn.equal b t)
          | Some _, None -> true
          | None, _ -> false
        in
        cases :=
          {
            diagnosis;
            correct;
            direction_correct;
            traceroute_differs;
          }
          :: !cases
  done;
  List.rev !cases

let run ~ases ~failure_count ~jobs ~seed () =
  (* Distribute the quota over a fixed number of shards (never a function
     of [jobs]); each shard hunts its share of failures in its own
     world. *)
  let shards = max 1 (min shard_count failure_count) in
  let quota shard =
    (failure_count / shards) + if shard < failure_count mod shards then 1 else 0
  in
  (* Every shard reads the same converged world. Isolation probes run
     only between the PlanetLab sites (and walk to the transit targets),
     so it announces infrastructure for those endpoints only — a few
     dozen prefixes instead of one per AS. *)
  let world = Scenarios.planetlab ~ases ~sites:24 ~infrastructure:Scenarios.Sites ~seed () in
  let shard_cases =
    Runner.run_views ~jobs world
      (List.init shards (fun shard -> run_shard ~seed ~shard ~quota:(quota shard)))
  in
  let cases = List.concat shard_cases in
  let isolated =
    List.filter
      (fun c ->
        Option.is_some (Lifeguard.Isolation.blamed_as c.diagnosis.Lifeguard.Isolation.blame))
      cases
  in
  let frac pred l =
    if l = [] then 0.0
    else
      float_of_int (List.length (List.filter pred l)) /. float_of_int (List.length l)
  in
  let consistent = List.filter (fun c -> c.correct) isolated in
  {
    cases;
    isolated = List.length isolated;
    consistent = List.length consistent;
    fraction_consistent = frac (fun c -> c.correct) isolated;
    fraction_direction_correct = frac (fun c -> c.direction_correct) cases;
    fraction_traceroute_differs = frac (fun c -> c.traceroute_differs) isolated;
    mean_probes =
      (if isolated = [] then 0.0
       else
         Stats.Descriptive.mean
           (Array.of_list
              (List.map
                 (fun c -> float_of_int c.diagnosis.Lifeguard.Isolation.probes_used)
                 isolated)));
    mean_elapsed =
      (if isolated = [] then 0.0
       else
         Stats.Descriptive.mean
           (Array.of_list
              (List.map (fun c -> c.diagnosis.Lifeguard.Isolation.elapsed) isolated)));
  }

let to_tables r =
  let t =
    Stats.Table.create ~title:"Sec 5.3 isolation accuracy (paper vs measured)"
      ~columns:[ "metric"; "paper"; "measured" ]
  in
  Stats.Table.add_rows t
    [
      [ "failures isolated"; "182"; Stats.Table.cell_int r.isolated ];
      [
        "consistent with ground truth";
        Stats.Table.cell_pct paper_fraction_consistent ^ " (169/182, vs far-side traceroute)";
        Printf.sprintf "%s (%d/%d, vs injected failure)"
          (Stats.Table.cell_pct r.fraction_consistent)
          r.consistent r.isolated;
      ];
      [
        "direction correctly classified";
        "-";
        Stats.Table.cell_pct r.fraction_direction_correct;
      ];
      [
        "differs from traceroute-only diagnosis";
        Stats.Table.cell_pct paper_fraction_traceroute_differs;
        Stats.Table.cell_pct r.fraction_traceroute_differs;
      ];
      [ "mean probes per isolation"; "~280"; Stats.Table.cell_float ~decimals:0 r.mean_probes ];
      [
        "mean isolation latency (s)";
        "140";
        Stats.Table.cell_float ~decimals:0 r.mean_elapsed;
      ];
    ];
  [ t ]
