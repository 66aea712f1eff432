(** §6 case study: repairing the Taiwan <-> Wisconsin outage end to end.

    A LIFEGUARD origin announces production + sentinel prefixes via its
    Wisconsin provider and monitors a Taiwanese site. At 8:15pm the
    site's reverse path — which runs through UUNET — silently dies:
    UUNET keeps announcing routes but drops packets toward the origin.
    LIFEGUARD detects the outage within minutes, isolates a reverse-path
    failure in UUNET using spoofed probes and its path atlas, poisons
    UUNET, and connectivity returns over the academic path. Hours later
    UUNET recovers; sentinel probes notice, and LIFEGUARD reverts to the
    unpoisoned baseline. *)

open Net
open Workloads

type phase_check = {
  label : string;
  time : float;
  reachable : bool;  (** Taiwan -> production delivery at that instant. *)
  via : Asn.t list;  (** Taiwan's AS path toward the production prefix. *)
}

type result = {
  events : (float * Lifeguard.Orchestrator.event) list;
  checks : phase_check list;
  diagnosis_blames_uunet : bool;
  repaired : bool;  (** Poisoning restored Taiwan's connectivity. *)
  unpoisoned_after_repair : bool;
  detection_to_repair : float option;  (** Seconds from outage detection to working path. *)
}

let taiwan_route cs =
  let open Scenarios.Case_study in
  match
    Bgp.Network.best_route cs.bed.Scenarios.net cs.taiwan Scenarios.production_prefix
  with
  | Some entry -> Bgp.As_path.to_list entry.Bgp.Route.ann.Bgp.Route.path
  | None -> []

let check cs label =
  let open Scenarios.Case_study in
  let bed = cs.bed in
  let production_address = Prefix.nth_address Scenarios.production_prefix 1 in
  {
    label;
    time = Sim.Engine.now bed.Scenarios.engine;
    reachable =
      Dataplane.Probe.delivers bed.Scenarios.probe ~src:cs.taiwan ~dst:production_address;
    via = taiwan_route cs;
  }

let run () =
  let cs = Scenarios.Case_study.build () in
  let open Scenarios.Case_study in
  let bed = cs.bed in
  let engine = bed.Scenarios.engine in
  let net = bed.Scenarios.net in
  let atlas = Measurement.Atlas.create () in
  let responsiveness = Measurement.Responsiveness.create () in
  let orchestrator =
    Lifeguard.Orchestrator.create
      ~config:
        {
          Lifeguard.Orchestrator.default_config with
          Lifeguard.Orchestrator.decide = { Lifeguard.Decide.min_outage_age = 240.0 };
        }
      ~env:bed.Scenarios.probe ~atlas ~responsiveness ~plan:cs.plan
      ~vantage_points:bed.Scenarios.vantage_points ()
  in
  Bgp.Network.run_until_quiet net;
  Lifeguard.Orchestrator.watch orchestrator ~targets:[ cs.taiwan ];
  (* Let a month... a while of quiet monitoring pass, then break UUNET at
     "8:15pm". *)
  Sim.Engine.run ~until:1800.0 engine;
  let checks = ref [ check cs "before failure" ] in
  let record c = checks := !checks @ [ c ] in
  let failure = uunet_failure cs in
  Dataplane.Failure.inject net bed.Scenarios.failures failure;
  record (check cs "failure injected");
  (* Detection (4 x 30 s) + isolation + decision gate + convergence. *)
  Sim.Engine.run ~until:3600.0 engine;
  let repaired_check = check cs "after LIFEGUARD reacts" in
  record repaired_check;
  (* UUNET fixes itself hours later. *)
  Sim.Engine.run ~until:(1800.0 +. (6.0 *. 3600.0)) engine;
  Dataplane.Failure.heal net bed.Scenarios.failures failure;
  Sim.Engine.run ~until:(1800.0 +. (8.0 *. 3600.0)) engine;
  record (check cs "after repair + unpoison");
  let events = Lifeguard.Orchestrator.events orchestrator in
  let diagnosis_blames_uunet =
    List.exists
      (fun (_, e) ->
        match e with
        | Lifeguard.Orchestrator.Diagnosed d -> (
            match Lifeguard.Isolation.blamed_as d.Lifeguard.Isolation.blame with
            | Some blamed -> Asn.equal blamed cs.uunet
            | None -> false)
        | _ -> false)
      events
  in
  let poison_time =
    List.find_map
      (fun (t, e) ->
        match e with
        | Lifeguard.Orchestrator.Poison_announced _ -> Some t
        | _ -> None)
      events
  in
  let detect_time =
    List.find_map
      (fun (t, e) ->
        match e with
        | Lifeguard.Orchestrator.Outage_detected _ -> Some t
        | _ -> None)
      events
  in
  let unpoisoned =
    List.exists
      (fun (_, e) -> e = Lifeguard.Orchestrator.Unpoisoned)
      events
  in
  {
    events;
    checks = !checks;
    diagnosis_blames_uunet;
    repaired = repaired_check.reachable;
    unpoisoned_after_repair = unpoisoned;
    detection_to_repair =
      (match (detect_time, poison_time) with
      | Some d, Some p -> Some (p -. d)
      | _ -> None);
  }

let to_tables r =
  let timeline =
    Stats.Table.create ~title:"Sec 6 case study timeline" ~columns:[ "t (s)"; "event" ]
  in
  List.iter
    (fun (t, e) ->
      Stats.Table.add_row timeline
        [
          Stats.Table.cell_float ~decimals:0 t;
          Format.asprintf "%a" Lifeguard.Orchestrator.pp_event e;
        ])
    r.events;
  let checks =
    Stats.Table.create ~title:"Sec 6 connectivity checks"
      ~columns:[ "t (s)"; "phase"; "taiwan -> production"; "via AS path" ]
  in
  List.iter
    (fun c ->
      Stats.Table.add_row checks
        [
          Stats.Table.cell_float ~decimals:0 c.time;
          c.label;
          (if c.reachable then "delivered" else "FAILED");
          String.concat " "
            (List.map (fun a -> string_of_int (Net.Asn.to_int a)) c.via);
        ])
    r.checks;
  let verdict =
    Stats.Table.create ~title:"Sec 6 verdict (paper vs measured)"
      ~columns:[ "claim"; "paper"; "measured" ]
  in
  Stats.Table.add_rows verdict
    [
      [
        "reverse failure isolated to UUNET";
        "yes";
        (if r.diagnosis_blames_uunet then "yes" else "NO");
      ];
      [ "poisoning restored connectivity"; "yes"; (if r.repaired then "yes" else "NO") ];
      [
        "sentinel detected repair; unpoisoned";
        "yes (8h later)";
        (if r.unpoisoned_after_repair then "yes" else "NO");
      ];
      [
        "detection -> repair (s)";
        "minutes";
        (match r.detection_to_repair with
        | Some s -> Stats.Table.cell_float ~decimals:0 s
        | None -> "-");
      ];
    ];
  [ timeline; checks; verdict ]
