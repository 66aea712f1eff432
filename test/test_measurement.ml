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

(* Two monitors note one address in one responsiveness database, each
   skipping the notes its own last note makes moot. Scripted losses
   decide every pair; after every round the database must expect a
   response exactly when a database fed every pair does. *)
let test_monitor_notes_match_every_pair () =
  let interval = Measurement.Monitor.interval in
  let falls = ref 0 and sampled = ref 0 in
  for seed = 1 to 25 do
    let w = ready_world () in
    let db = Measurement.Responsiveness.create ()
    and every_pair = Measurement.Responsiveness.create () in
    let target = addr w e in
    let rng = Prng.create ~seed in
    (* Mostly failures at first, so the entry sits at "never answered"
       for a while before a success moves it. *)
    let scripted () =
      let pairs = ref 0 in
      fun () ->
        incr pairs;
        incr sampled;
        let answered = Prng.bernoulli rng ~p:(if !pairs <= 3 then 0.1 else 0.4) in
        Measurement.Responsiveness.note every_pair target answered;
        not answered
    in
    let start monitor_loss =
      ignore
        (Measurement.Monitor.create ~env:w.probe ~engine:w.engine ~responsiveness:db
           ~loss:monitor_loss ~vp:o ~targets:[ target ] ())
    in
    start (scripted ());
    start (scripted ());
    let t0 = Sim.Engine.now w.engine in
    for round = 1 to 10 do
      Sim.Engine.run ~until:(t0 +. (float_of_int round *. interval) +. 1.0) w.engine;
      let expected = Measurement.Responsiveness.expect_response every_pair target in
      if not expected then incr falls;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d round %d" seed round)
        expected
        (Measurement.Responsiveness.expect_response db target)
    done
  done;
  Alcotest.(check int) "every pair was scripted" (25 * 2 * 10) !sampled;
  Alcotest.(check bool) "some rounds end at never-answered" true (!falls > 0)

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
    Alcotest.test_case "shared address: monitor notes = every pair" `Quick
      test_monitor_notes_match_every_pair;
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

(* Stamp reuse: a monitor round or an atlas refresh under an unchanged
   [Probe.stamp] must give exactly what a fresh measurement gives. *)

(* The reference verdict of one ping pair: both walks done fresh, the
   responder looked up fresh. *)
let fresh_ping w ~src ~reply_to ~dst =
  Dataplane.Forward.delivers w.net w.failures ~src ~dst
  &&
  let responder =
    match Topology.As_graph.owner_of_address w.graph dst with
    | Some asn -> Some asn
    | None -> Option.map snd (Bgp.Network.owner_of_address w.net dst)
  in
  match responder with
  | Some r -> Dataplane.Forward.delivers w.net w.failures ~src:r ~dst:reply_to
  | None -> false

(* The outages a monitor must report for a verdict sequence: one per run
   of [Monitor.fail_threshold] failed pairs, as (started, detected). *)
let expected_outages rounds =
  let _, _, _, acc =
    List.fold_left
      (fun (fails, first, open_, acc) (now, ok) ->
        if ok then (0, first, false, acc)
        else begin
          let first = if fails = 0 then now else first in
          let fails = fails + 1 in
          if fails = Measurement.Monitor.fail_threshold && not open_ then
            (fails, first, true, (first, now) :: acc)
          else (fails, first, open_, acc)
        end)
      (0, 0.0, false, []) rounds
  in
  List.rev acc

let test_monitor_reuse_matches_fresh () =
  let w = ready_world () in
  let plan = Lifeguard.Remediate.plan ~sentinel ~origin:o ~production () in
  Lifeguard.Remediate.announce_baseline w.net plan;
  converge w;
  let in_production = Prefix.nth_address production 1 in
  (* One target per monitor, so the [loss] hook (sampled only on a
     delivered pair) tells each round's verdict, and the [gate] (asked
     just before the pair) computes the reference at the same instant. *)
  let watch ~vp ~src_ip ~target =
    let reply_to = Option.value src_ip ~default:(addr w vp) in
    let reference = ref [] and delivered = ref [] and outages = ref [] in
    let m =
      Measurement.Monitor.create ~env:w.probe ~engine:w.engine ?src_ip
        ~on_outage:(fun ou ->
          outages :=
            (ou.Measurement.Monitor.started_at, ou.Measurement.Monitor.detected_at) :: !outages)
        ~gate:(fun ~now ~cost:_ ->
          reference := (now, fresh_ping w ~src:vp ~reply_to ~dst:target) :: !reference;
          true)
        ~loss:(fun () ->
          delivered := Sim.Engine.now w.engine :: !delivered;
          false)
        ~vp ~targets:[ target ] ()
    in
    (m, reference, delivered, outages)
  in
  let monitors =
    [
      watch ~vp:o ~src_ip:(Some in_production) ~target:(addr w e);
      watch ~vp:o ~src_ip:(Some in_production) ~target:(addr w f);
      watch ~vp:e ~src_ip:None ~target:(addr w o);
    ]
  in
  let run_for seconds = Sim.Engine.run ~until:(Sim.Engine.now w.engine +. seconds) w.engine in
  let toward_production = Dataplane.Failure.spec ~toward:production (Dataplane.Failure.Node a) in
  (* Nothing monitored crosses D -> C toward F's routers. *)
  let elsewhere =
    Dataplane.Failure.spec
      ~toward:(Dataplane.Forward.infrastructure_prefix f)
      (Dataplane.Failure.Link_dir (d, c))
  in
  run_for 100.0;
  (* Replies into production die in A: an outage for E and F. *)
  Dataplane.Failure.add w.failures toward_production;
  run_for 150.0;
  (* The poison moves E's FIB onto D; F, captive, stays cut off. *)
  Lifeguard.Remediate.poison w.net plan ~target:a;
  converge w;
  run_for 100.0;
  (* A new failure version that breaks no monitored walk. *)
  Dataplane.Failure.add w.failures elsewhere;
  run_for 100.0;
  Dataplane.Failure.remove w.failures toward_production;
  run_for 100.0;
  Lifeguard.Remediate.unpoison w.net plan;
  converge w;
  run_for 100.0;
  let pairs =
    List.fold_left
      (fun total (m, reference, delivered, outages) ->
        let reference = List.rev !reference in
        let verdicts =
          List.map (fun (now, _) -> (now, List.mem now !delivered)) reference
        in
        Alcotest.(check (list (pair (float 0.0) bool))) "each round's verdict" reference verdicts;
        Alcotest.(check (list (pair (float 0.0) (float 0.0))))
          "outages reported" (expected_outages reference) (List.rev !outages);
        Alcotest.(check int) "pairs sent" (List.length reference)
          (Measurement.Monitor.probe_count m);
        total + List.length reference)
      0 monitors
  in
  Alcotest.(check bool) "the script both fails and heals pairs" true
    (List.exists
       (fun (_, reference, _, _) ->
         List.exists snd !reference && List.exists (fun (_, ok) -> not ok) !reference)
       monitors);
  Alcotest.(check int) "probes sent" pairs w.probe.Dataplane.Probe.probes_sent

let test_atlas_reuse_matches_fresh () =
  let w = ready_world () in
  let atlas = Measurement.Atlas.create () and reference = Measurement.Atlas.create () in
  let vps = [ o; e ] and dsts = [ f; d ] in
  let snaps = List.map (fun s -> (s.Measurement.Atlas.taken_at, List.map Asn.to_int s.path)) in
  let refresh now =
    let before = w.probe.Dataplane.Probe.probes_sent in
    Measurement.Atlas.refresh_all atlas w.probe ~vps ~dsts ~now;
    (* A new env has no memo and no stamp in common with [w.probe], so
       the reference atlas measures afresh every time. *)
    let fresh = Dataplane.Probe.env w.net w.failures in
    Measurement.Atlas.refresh_all reference fresh ~vps ~dsts ~now;
    Alcotest.(check int)
      (Printf.sprintf "probes at %.0f" now)
      fresh.Dataplane.Probe.probes_sent
      (w.probe.Dataplane.Probe.probes_sent - before);
    List.iter
      (fun vp ->
        List.iter
          (fun dst ->
            let same what history =
              Alcotest.(check (list (pair (float 0.0) (list int))))
                (Printf.sprintf "%s %d->%d at %.0f" what (Asn.to_int vp) (Asn.to_int dst) now)
                (snaps (history reference ~vp ~dst))
                (snaps (history atlas ~vp ~dst))
            in
            same "forward" Measurement.Atlas.forward_history;
            same "reverse" Measurement.Atlas.reverse_history)
          dsts)
      vps
  in
  refresh 10.0;
  refresh 20.0;
  (* E reroutes through D. *)
  Bgp.Network.fail_link w.net ~a ~b:e;
  converge w;
  refresh 30.0;
  refresh 40.0;
  (* Nothing reaches F's routers through A: O and E can no longer
     stimulate F, so reverse traceroute from F is infeasible. *)
  let cut_f =
    Dataplane.Failure.spec ~toward:(Dataplane.Forward.infrastructure_prefix f)
      (Dataplane.Failure.Node a)
  in
  Dataplane.Failure.add w.failures cut_f;
  refresh 50.0;
  refresh 60.0;
  Alcotest.(check bool) "F's reverse path was not refreshed" true
    (match Measurement.Atlas.reverse_history atlas ~vp:o ~dst:f with
    | newest :: _ -> newest.Measurement.Atlas.taken_at = 40.0
    | [] -> false);
  Dataplane.Failure.remove w.failures cut_f;
  refresh 70.0

let suite =
  suite
  @ [
      Alcotest.test_case "monitor reuse = fresh rounds" `Quick test_monitor_reuse_matches_fresh;
      Alcotest.test_case "atlas reuse = fresh refreshes" `Quick test_atlas_reuse_matches_fresh;
    ]
