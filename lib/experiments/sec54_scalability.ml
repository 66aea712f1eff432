open Workloads

type result = {
  pairs_refreshed : int;
  probes_per_path : float;
  paths_per_minute : float;
  isolation_probes_mean : float;
  isolation_elapsed_mean : float;
  rtr_scratch_mean : float;
  rtr_cached_mean : float;
}

(* The deployment's sustainable probing budget (packets/s across the
   vantage-point pool), matching the scale of the paper's deployment. *)
let probing_budget_pps = 150.0

let run ~ases ~seed ~accuracy:(acc : Sec53_accuracy.result) () =
  let bed = Scenarios.planetlab ~ases ~sites:24 ~seed () in
  let atlas = Measurement.Atlas.create () in
  let sites = bed.Scenarios.vantage_points in
  let vps, targets =
    let arr = Array.of_list sites in
    let n = Array.length arr in
    ( Array.to_list (Array.sub arr 0 (n / 2)),
      Array.to_list (Array.sub arr (n / 2) (n - (n / 2))) )
  in
  Dataplane.Probe.reset_probe_count bed.Scenarios.probe;
  Measurement.Atlas.refresh_all atlas bed.Scenarios.probe ~vps ~dsts:targets ~now:0.0;
  let pairs = Measurement.Atlas.pair_count atlas in
  let probes = bed.Scenarios.probe.Dataplane.Probe.probes_sent in
  let per_path = float_of_int probes /. float_of_int (max 1 pairs) in
  (* The full reverse-traceroute mechanism: from-scratch vs cache-assisted
     cost over the same (target, vp) pairs. *)
  let rtr = Measurement.Reverse_traceroute.create ~env:bed.Scenarios.probe ~vantage_points:vps () in
  let scratch = ref [] and cached_costs = ref [] in
  List.iter
    (fun vp ->
      List.iter
        (fun target ->
          let to_ip = Dataplane.Forward.probe_address bed.Scenarios.net vp in
          match Measurement.Reverse_traceroute.measure rtr ~from_:target ~to_ip () with
          | Some m when m.Measurement.Reverse_traceroute.complete ->
              scratch := float_of_int m.Measurement.Reverse_traceroute.probes_used :: !scratch;
              let cached =
                List.map
                  (fun h -> h.Measurement.Reverse_traceroute.asn)
                  m.Measurement.Reverse_traceroute.path
              in
              (match Measurement.Reverse_traceroute.measure rtr ~from_:target ~to_ip ~cached () with
              | Some m2 ->
                  cached_costs :=
                    float_of_int m2.Measurement.Reverse_traceroute.probes_used :: !cached_costs
              | None -> ())
          | Some _ | None -> ())
        targets)
    vps;
  let mean l = if l = [] then 0.0 else Stats.Descriptive.mean (Array.of_list l) in
  {
    pairs_refreshed = pairs;
    probes_per_path = per_path;
    paths_per_minute = probing_budget_pps *. 60.0 /. per_path;
    isolation_probes_mean = acc.Sec53_accuracy.mean_probes;
    isolation_elapsed_mean = acc.Sec53_accuracy.mean_elapsed;
    rtr_scratch_mean = mean !scratch;
    rtr_cached_mean = mean !cached_costs;
  }

let to_tables r =
  let t =
    Stats.Table.create ~title:"Sec 5.4 scalability (paper vs measured)"
      ~columns:[ "metric"; "paper"; "measured" ]
  in
  Stats.Table.add_rows t
    [
      [ "atlas pairs refreshed"; "-"; Stats.Table.cell_int r.pairs_refreshed ];
      [
        "probe packets per refreshed path";
        "~10 option probes + ~2 traceroutes (~40 pkts)";
        Stats.Table.cell_float ~decimals:1 r.probes_per_path;
      ];
      [
        "refresh rate at probing budget (paths/min)";
        "225 (502 peak)";
        Stats.Table.cell_float ~decimals:0 r.paths_per_minute;
      ];
      [
        "probes per fault isolation";
        "~280";
        Stats.Table.cell_float ~decimals:0 r.isolation_probes_mean;
      ];
      [
        "isolation latency (s, mean)";
        "140";
        Stats.Table.cell_float ~decimals:0 r.isolation_elapsed_mean;
      ];
      [
        "reverse traceroute, from scratch (probes)";
        "~35";
        Stats.Table.cell_float ~decimals:0 r.rtr_scratch_mean;
      ];
      [
        "reverse traceroute, cache-assisted (probes)";
        "~10";
        Stats.Table.cell_float ~decimals:0 r.rtr_cached_mean;
      ];
    ];
  [ t ]
