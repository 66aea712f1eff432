open Net
open Workloads

type result = {
  ases : int;
  rapid_suppressors : int;
  rapid_cutoff : int;
  spaced_suppressors : int;
  spaced_cutoff : int;
}

let production = Scenarios.production_prefix

let cycles mux ~spacing =
  let bed = mux.Scenarios.bed in
  let net = bed.Scenarios.net in
  let origin = mux.Scenarios.origin in
  let plan = mux.Scenarios.plan in
  Poisoning.converge_baseline mux;
  Scenarios.settle bed ~seconds:spacing;
  let target = List.hd (Scenarios.harvest_on_path_ases mux) in
  for _ = 1 to 3 do
    Lifeguard.Remediate.poison net plan ~target;
    Bgp.Network.run_until_quiet net;
    Scenarios.settle bed ~seconds:spacing;
    Lifeguard.Remediate.unpoison net plan;
    Bgp.Network.run_until_quiet net;
    Scenarios.settle bed ~seconds:spacing
  done;
  let graph = bed.Scenarios.graph in
  let all = Topology.As_graph.as_list graph in
  let suppressors =
    List.filter
      (fun asn ->
        Bgp.Speaker.suppressed_candidates (Bgp.Network.speaker net asn) production <> [])
      all
  in
  let cutoff =
    List.filter
      (fun asn ->
        (not (Asn.equal asn origin))
        && Option.is_none (Bgp.Network.best_route net asn production))
      all
  in
  (List.length suppressors, List.length cutoff, List.length all)

let run ~ases ~jobs ~seed () =
  let damped_config _ =
    {
      Bgp.Policy.default with
      Bgp.Policy.damping = Some Bgp.Policy.default_damping;
      Bgp.Policy.pref_jitter = 8;
    }
  in
  (* Everything measured here is control-plane state of the production
     prefix, so neither the scaffold mux nor the damped rebuild needs
     infrastructure prefixes. *)
  let build () =
    let mux = Poisoning.mux ~ases ~seed () in
    (* Rebuild the network with damping enabled everywhere. *)
    let graph = mux.Scenarios.bed.Scenarios.graph in
    let engine = Sim.Engine.create () in
    let net = Bgp.Network.create ~engine ~graph ~config_of:damped_config ~mrai:30.0 () in
    let failures = Dataplane.Failure.create () in
    let probe = Dataplane.Probe.env net failures in
    let bed =
      {
        mux.Scenarios.bed with
        Scenarios.engine;
        Scenarios.net = net;
        Scenarios.failures = failures;
        Scenarios.probe = probe;
      }
    in
    { mux with Scenarios.bed = bed }
  in
  (* The rapid and spaced schedules run in independent worlds. *)
  let outcomes =
    Runner.run_trials ~jobs
      [
        (fun () -> cycles (build ()) ~spacing:60.0);
        (fun () -> cycles (build ()) ~spacing:5400.0);
      ]
  in
  let (rapid_suppressors, rapid_cutoff, n), (spaced_suppressors, spaced_cutoff, _) =
    match outcomes with
    | [ rapid; spaced ] -> (rapid, spaced)
    | _ -> assert false
  in
  {
    ases = n;
    rapid_suppressors;
    rapid_cutoff;
    spaced_suppressors;
    spaced_cutoff;
  }

let to_tables r =
  let t =
    Stats.Table.create
      ~title:"Route-flap damping: rapid vs 90-minute-spaced announcements"
      ~columns:[ "metric"; "paper"; "measured" ]
  in
  Stats.Table.add_rows t
    [
      [ "ASes (all damping-enabled)"; "-"; Stats.Table.cell_int r.ases ];
      [
        "ASes suppressing the prefix after 3 rapid cycles";
        "flap dampening is why announcements were spaced";
        Stats.Table.cell_int r.rapid_suppressors;
      ];
      [
        "ASes cut off entirely (rapid)";
        "-";
        Stats.Table.cell_int r.rapid_cutoff;
      ];
      [
        "ASes suppressing after 90-min spacing";
        "0 (by design of the schedule)";
        Stats.Table.cell_int r.spaced_suppressors;
      ];
      [ "ASes cut off (spaced)"; "0"; Stats.Table.cell_int r.spaced_cutoff ];
    ];
  [ t ]
