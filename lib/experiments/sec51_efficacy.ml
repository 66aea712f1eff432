open Net

type result = {
  poisons_attempted : int;
  cases : int;
  rerouted : int;
  fraction_rerouted : float;
  captive : int;
  fraction_sim : float;
  agreement : float;
}

let paper_fraction_rerouted = 0.77
let paper_fraction_sim = 0.90
let paper_agreement = 0.925

let peer_route_contains mux peer target =
  match Bgp.Network.best_route mux.Workloads.Scenarios.bed.Workloads.Scenarios.net peer
          Workloads.Scenarios.production_prefix
  with
  | None -> None
  | Some entry ->
      Some
        (Bgp.As_path.traverses
           ~origin:mux.Workloads.Scenarios.origin ~target
           entry.Bgp.Route.ann.Bgp.Route.path)

(* Per-trial statistics for one poisoned AS, measured in the trial's own
   world. *)
type trial_stats = { t_cases : int; t_rerouted : int; t_captive : int; t_agree : int }

let no_stats = { t_cases = 0; t_rerouted = 0; t_captive = 0; t_agree = 0 }

(* [mux] has its baseline converged. *)
let poison_trial mux target =
  let net = mux.Workloads.Scenarios.bed.Workloads.Scenarios.net in
  let graph = mux.Workloads.Scenarios.bed.Workloads.Scenarios.graph in
  let origin = mux.Workloads.Scenarios.origin in
  let search = Topology.Splice.context () in
  let peers_via =
    List.filter
      (fun peer -> Option.value ~default:false (peer_route_contains mux peer target))
      mux.Workloads.Scenarios.feeds
  in
  if peers_via = [] then no_stats
  else begin
    Lifeguard.Remediate.poison net mux.Workloads.Scenarios.plan ~target;
    Bgp.Network.run_until_quiet net;
    List.fold_left
      (fun acc peer ->
        let found =
          match peer_route_contains mux peer target with
          | Some false -> true
          | Some true | None -> false
        in
        let predicted =
          Lifeguard.Decide.alternate_path_exists search graph ~src:peer ~origin ~avoid:target
        in
        (* Captive: every policy path from the peer to the origin crosses
           the poisoned AS. *)
        let captive = (not found) && not predicted in
        {
          t_cases = acc.t_cases + 1;
          t_rerouted = (acc.t_rerouted + if found then 1 else 0);
          t_captive = (acc.t_captive + if captive then 1 else 0);
          t_agree = (acc.t_agree + if predicted = found then 1 else 0);
        })
      no_stats peers_via
  end

(* The large-scale simulation over a converged world: for every transit
   AS on every feed path, does a policy path from the feed avoid it?
   Returns (cases, cases with an alternate). *)
let simulate mux =
  let net = mux.Workloads.Scenarios.bed.Workloads.Scenarios.net in
  let graph = mux.Workloads.Scenarios.bed.Workloads.Scenarios.graph in
  let origin = mux.Workloads.Scenarios.origin in
  let search = Topology.Splice.context () in
  List.fold_left
    (fun (cases, alt) peer ->
      match Bgp.Network.best_route net peer Workloads.Scenarios.production_prefix with
      | None -> (cases, alt)
      | Some entry ->
          let path = Bgp.As_path.to_list entry.Bgp.Route.ann.Bgp.Route.path in
          let interior =
            List.filter
              (fun a ->
                (not (Asn.equal a origin))
                && (not (Asn.equal a peer))
                && not (List.exists (Asn.equal a) mux.Workloads.Scenarios.providers))
              path
          in
          List.fold_left
            (fun (cases, alt) a ->
              ( cases + 1,
                if Lifeguard.Decide.alternate_path_exists search graph ~src:peer ~origin ~avoid:a
                then alt + 1
                else alt ))
            (cases, alt)
            (List.sort_uniq Asn.compare interior))
    (0, 0) mux.Workloads.Scenarios.feeds

let run ~ases ~max_poisons ~jobs ~seed () =
  (* Scout world: harvest the poisoning targets and run the large-scale
     simulation over the converged baseline. All measurement here is
     control-plane (collector RIBs + topology analysis), so the world
     needs no infrastructure prefixes. The scout is done with before the
     trials start, so it is not live while they fork. *)
  let template, targets, (sim_cases, sim_alt) =
    let mux = Poisoning.mux ~ases ~seed () in
    Poisoning.converge_baseline mux;
    let template = Workloads.Template.capture mux in
    let targets = Poisoning.targets mux ~rng:(Prng.create ~seed:(seed + 1)) ~n:max_poisons in
    (template, targets, simulate mux)
  in
  (* Each poisoning runs in its own fork of the scout, so the trial list
     is independent of [jobs] and results are bit-identical to a
     sequential run. *)
  let stats =
    Runner.run_trials ~jobs
      (List.map (fun t () -> poison_trial (Workloads.Template.fork template) t) targets)
  in
  let totals =
    List.fold_left
      (fun acc s ->
        {
          t_cases = acc.t_cases + s.t_cases;
          t_rerouted = acc.t_rerouted + s.t_rerouted;
          t_captive = acc.t_captive + s.t_captive;
          t_agree = acc.t_agree + s.t_agree;
        })
      no_stats stats
  in
  let fraction num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den in
  {
    poisons_attempted = List.length targets;
    cases = totals.t_cases;
    rerouted = totals.t_rerouted;
    fraction_rerouted = fraction totals.t_rerouted totals.t_cases;
    captive = totals.t_captive;
    fraction_sim = fraction sim_alt sim_cases;
    agreement = fraction totals.t_agree totals.t_cases;
  }

let to_tables r =
  let t =
    Stats.Table.create ~title:"Sec 5.1 Efficacy (paper vs measured)"
      ~columns:[ "metric"; "paper"; "measured" ]
  in
  Stats.Table.add_rows t
    [
      [ "poisonings"; "-"; Stats.Table.cell_int r.poisons_attempted ];
      [ "peer-paths through poisoned AS"; "132"; Stats.Table.cell_int r.cases ];
      [
        "found alternate path";
        Stats.Table.cell_pct paper_fraction_rerouted;
        Stats.Table.cell_pct r.fraction_rerouted;
      ];
      [
        "of failures, captive behind only provider";
        "2/3";
        Printf.sprintf "%d/%d" r.captive (r.cases - r.rerouted);
      ];
      [
        "simulation: alternate exists";
        Stats.Table.cell_pct paper_fraction_sim;
        Stats.Table.cell_pct r.fraction_sim;
      ];
      [
        "simulation agrees with live poisoning";
        Stats.Table.cell_pct paper_agreement;
        Stats.Table.cell_pct r.agreement;
      ];
    ];
  [ t ]
