(* Atlas, monitors and the responsiveness database. *)

open Net
open Helpers

let ready_world () =
  let w = fig2_world () in
  announce_all_infrastructure w;
  w

let addr w x = Dataplane.Forward.probe_address w.net x

let test_atlas_record_and_history () =
  let w = ready_world () in
  let atlas = Measurement.Atlas.create () in
  let refresh now = Measurement.Atlas.refresh_all atlas w.probe ~vps:[ e ] ~dsts:[ o ] ~now in
  refresh 10.0;
  refresh 20.0;
  (* E loses its session to A and reroutes through D. *)
  Bgp.Network.fail_link w.net ~a ~b:e;
  converge w;
  refresh 30.0;
  let history = Measurement.Atlas.forward_history atlas ~vp:e ~dst:o in
  Alcotest.(check int) "identical consecutive snapshots collapse" 2 (List.length history);
  (match history with
  | newest :: older :: _ ->
      Alcotest.(check (list int)) "newest is the change" [ 60; 50; 40; 20; 10 ]
        (List.map Asn.to_int newest.Measurement.Atlas.path);
      Alcotest.(check (float 0.001)) "older keeps its refreshed time" 20.0
        older.Measurement.Atlas.taken_at
  | _ -> Alcotest.fail "history shape");
  (match Measurement.Atlas.latest_forward atlas ~vp:e ~dst:o ~before:25.0 () with
  | Some snap ->
      Alcotest.(check (list int)) "as-of query" [ 60; 30; 20; 10 ]
        (List.map Asn.to_int snap.Measurement.Atlas.path)
  | None -> Alcotest.fail "latest_forward ~before");
  let hops = Measurement.Atlas.candidate_hops atlas ~vp:e ~dst:o in
  Alcotest.(check (list int)) "candidate universe" [ 10; 20; 30; 40; 50; 60 ]
    (List.map Asn.to_int (Asn.Set.elements hops))

let test_atlas_refresh () =
  let w = ready_world () in
  let atlas = Measurement.Atlas.create () in
  Measurement.Atlas.refresh_all atlas w.probe ~vps:[ e ] ~dsts:[ o ] ~now:5.0;
  (match Measurement.Atlas.latest_forward atlas ~vp:e ~dst:o () with
  | Some snap ->
      Alcotest.(check (list int)) "forward path measured" [ 60; 30; 20; 10 ]
        (List.map Asn.to_int snap.Measurement.Atlas.path)
  | None -> Alcotest.fail "no forward snapshot");
  (match Measurement.Atlas.reverse_history atlas ~vp:e ~dst:o with
  | snap :: _ ->
      Alcotest.(check (list int)) "reverse path measured (dst first)" [ 10; 20; 30; 60 ]
        (List.map Asn.to_int snap.Measurement.Atlas.path)
  | [] -> Alcotest.fail "no reverse snapshot");
  Alcotest.(check int) "one pair" 1 (Measurement.Atlas.pair_count atlas)

let test_monitor_detects_outage_and_recovery () =
  let w = ready_world () in
  let detected = ref [] in
  let _monitor =
    Measurement.Monitor.create ~env:w.probe ~engine:w.engine
      ~on_outage:(fun outage -> detected := outage :: !detected)
      ~vp:o ~targets:[ addr w e ] ()
  in
  (* Quiet period. *)
  Sim.Engine.run ~until:200.0 w.engine;
  Alcotest.(check int) "no outage yet" 0 (List.length !detected);
  (* Break the reverse path silently. *)
  let spec =
    Dataplane.Failure.spec
      ~toward:(Dataplane.Forward.infrastructure_prefix o)
      (Dataplane.Failure.Node a)
  in
  Dataplane.Failure.add w.failures spec;
  Sim.Engine.run ~until:400.0 w.engine;
  Alcotest.(check int) "outage detected once" 1 (List.length !detected);
  (match !detected with
  | [ outage ] ->
      Alcotest.(check bool) "detected after ~4 rounds" true
        (outage.Measurement.Monitor.detected_at -. outage.Measurement.Monitor.started_at
         >= 89.0);
      Alcotest.(check bool) "still open" true (outage.Measurement.Monitor.ended_at = None)
  | _ -> Alcotest.fail "expected one outage");
  Dataplane.Failure.remove w.failures spec;
  Sim.Engine.run ~until:500.0 w.engine;
  (* The record handed to [on_outage] is closed in place on recovery. *)
  match !detected with
  | [ outage ] -> (
      match outage.Measurement.Monitor.ended_at with
      | Some ended ->
          Alcotest.(check bool) "closed with duration" true
            (ended > outage.Measurement.Monitor.started_at)
      | None -> Alcotest.fail "recovery not seen")
  | _ -> Alcotest.fail "expected one outage"

let test_monitor_threshold_not_crossed_by_blips () =
  let w = ready_world () in
  let detected = ref 0 in
  let _monitor =
    Measurement.Monitor.create ~env:w.probe ~engine:w.engine
      ~on_outage:(fun _ -> incr detected)
      ~vp:o ~targets:[ addr w e ] ()
  in
  let spec =
    Dataplane.Failure.spec
      ~toward:(Dataplane.Forward.infrastructure_prefix o)
      (Dataplane.Failure.Node a)
  in
  (* Two failed rounds, then recovery: threshold of four never crossed. *)
  Sim.Engine.run ~until:40.0 w.engine;
  Dataplane.Failure.add w.failures spec;
  Sim.Engine.run ~until:110.0 w.engine;
  Dataplane.Failure.remove w.failures spec;
  Sim.Engine.run ~until:400.0 w.engine;
  Alcotest.(check int) "blip below threshold ignored" 0 !detected

let test_responsiveness_db () =
  let db = Measurement.Responsiveness.create () in
  let ip1 = ipv4 "10.0.1.1" and ip2 = ipv4 "10.0.2.1" in
  Alcotest.(check bool) "unknown: optimistic" true (Measurement.Responsiveness.expect_response db ip1);
  Measurement.Responsiveness.note db ip2 true;
  Measurement.Responsiveness.note db ip2 false;
  Alcotest.(check bool) "history says expect" true
    (Measurement.Responsiveness.expect_response db ip2);
  let ip3 = ipv4 "10.0.3.1" in
  Measurement.Responsiveness.note db ip3 false;
  Measurement.Responsiveness.note db ip3 false;
  Alcotest.(check bool) "never answered: silence expected" false
    (Measurement.Responsiveness.expect_response db ip3)

let test_configure_silent_fraction () =
  let g = fig2_graph () in
  let db = Measurement.Responsiveness.create () in
  let rng = Prng.create ~seed:3 in
  Measurement.Responsiveness.configure_silent_fraction db rng g ~fraction:1.0;
  (* With fraction 1, every router is silent: even never-probed ones are
     not expected to answer. *)
  List.iter
    (fun a ->
      Array.iter
        (fun r ->
          Alcotest.(check bool) "all silent: no expectation" false
            (Measurement.Responsiveness.expect_response db r.Topology.As_graph.address))
        (Topology.As_graph.routers g a))
    (Topology.As_graph.as_list g)

let suite =
  [
    Alcotest.test_case "atlas record/history" `Quick test_atlas_record_and_history;
    Alcotest.test_case "atlas refresh" `Quick test_atlas_refresh;
    Alcotest.test_case "monitor detects and recovers" `Quick test_monitor_detects_outage_and_recovery;
    Alcotest.test_case "monitor ignores blips" `Quick test_monitor_threshold_not_crossed_by_blips;
    Alcotest.test_case "responsiveness db" `Quick test_responsiveness_db;
    Alcotest.test_case "silent fraction" `Quick test_configure_silent_fraction;
  ]

(* Reverse traceroute: mechanism, cache amortization, support model. *)
let test_reverse_traceroute_mechanism () =
  let w = ready_world () in
  Bgp.Network.announce w.net ~origin:o ~prefix:production ();
  converge w;
  let rt =
    Measurement.Reverse_traceroute.create ~env:w.probe ~vantage_points:[ d; c ] ()
  in
  let to_ip = Prefix.nth_address production 1 in
  match Measurement.Reverse_traceroute.measure rt ~from_:e ~to_ip () with
  | None -> Alcotest.fail "measurement should be feasible"
  | Some m ->
      Alcotest.(check bool) "complete" true m.Measurement.Reverse_traceroute.complete;
      Alcotest.(check (list int)) "path matches ground truth" [ 60; 30; 20; 10 ]
        (List.map
           (fun h -> Asn.to_int h.Measurement.Reverse_traceroute.asn)
           m.Measurement.Reverse_traceroute.path);
      Alcotest.(check bool) "from-scratch cost is substantial" true
        (m.Measurement.Reverse_traceroute.probes_used >= 8);
      (* Amortized re-measurement with the cached path is much cheaper. *)
      let cached =
        List.map (fun h -> h.Measurement.Reverse_traceroute.asn)
          m.Measurement.Reverse_traceroute.path
      in
      (match Measurement.Reverse_traceroute.measure rt ~from_:e ~to_ip ~cached () with
      | Some m2 ->
          Alcotest.(check bool) "cached still complete" true
            m2.Measurement.Reverse_traceroute.complete;
          Alcotest.(check bool)
            (Printf.sprintf "cached cheaper (%d < %d)"
               m2.Measurement.Reverse_traceroute.probes_used
               m.Measurement.Reverse_traceroute.probes_used)
            true
            (m2.Measurement.Reverse_traceroute.probes_used
            < m.Measurement.Reverse_traceroute.probes_used)
      | None -> Alcotest.fail "cached remeasurement failed")

let test_reverse_traceroute_infeasible () =
  let w = ready_world () in
  Bgp.Network.announce w.net ~origin:o ~prefix:production ();
  converge w;
  (* Cut E off from every vantage point's stimuli. *)
  Dataplane.Failure.add w.failures
    (Dataplane.Failure.spec ~toward:(Dataplane.Forward.infrastructure_prefix e)
       (Dataplane.Failure.Node a));
  let rt = Measurement.Reverse_traceroute.create ~env:w.probe ~vantage_points:[ o; f ] () in
  Alcotest.(check bool) "infeasible without a working VP" true
    (Measurement.Reverse_traceroute.measure rt ~from_:e
       ~to_ip:(Prefix.nth_address production 1) ()
    = None)

let test_option_support_deterministic () =
  let w = ready_world () in
  Bgp.Network.announce w.net ~origin:o ~prefix:production ();
  converge w;
  (* Support is a property of the router, not of the measurer: two
     measurers with different vantage points, each within record-route
     range of every hop, reveal each hop by the same technique. *)
  let hows vantage_points =
    let rt = Measurement.Reverse_traceroute.create ~env:w.probe ~vantage_points () in
    match
      Measurement.Reverse_traceroute.measure rt ~from_:e ~to_ip:(Prefix.nth_address production 1)
        ()
    with
    | Some m ->
        List.map
          (fun (h : Measurement.Reverse_traceroute.hop) -> (Asn.to_int h.asn, h.how))
          m.Measurement.Reverse_traceroute.path
    | None -> Alcotest.fail "measurement infeasible"
  in
  Alcotest.(check bool) "measurers agree on how each hop was revealed" true
    (hows [ d ] = hows [ o; f ])

let suite =
  suite
  @ [
      Alcotest.test_case "reverse traceroute mechanism" `Quick test_reverse_traceroute_mechanism;
      Alcotest.test_case "reverse traceroute infeasible" `Quick test_reverse_traceroute_infeasible;
      Alcotest.test_case "option support model" `Quick test_option_support_deterministic;
    ]
