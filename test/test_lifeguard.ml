(* LIFEGUARD's core: isolation, decision, remediation, load model and the
   orchestrator state machine. *)

open Net
open Helpers

let infra = Dataplane.Forward.infrastructure_prefix
let addr w x = Dataplane.Forward.probe_address w.net x

(* A fig2 world where O runs LIFEGUARD: infrastructure + production +
   sentinel announced, atlas populated, E monitored. *)
let lifeguard_world () =
  let w = fig2_world () in
  announce_all_infrastructure w;
  let plan =
    Lifeguard.Remediate.plan ~sentinel ~origin:o ~production ()
  in
  Lifeguard.Remediate.announce_baseline w.net plan;
  converge w;
  let atlas = Measurement.Atlas.create () in
  Measurement.Atlas.refresh_all atlas w.probe ~vps:[ o ] ~dsts:[ e; d; f ] ~now:0.0;
  let responsiveness = Measurement.Responsiveness.create () in
  let ctx =
    {
      Lifeguard.Isolation.env = w.probe;
      atlas;
      responsiveness;
      vantage_points = [ o; d; c ];
      source_overrides = [ (o, Prefix.nth_address production 1) ];
    }
  in
  (w, plan, ctx, atlas)

(* The paper's target scenario: A silently drops traffic toward O's
   announced space; the E -> O reverse path dies while O -> E works. *)
let reverse_failure_spec = Dataplane.Failure.spec ~toward:sentinel (Dataplane.Failure.Node a)

let test_isolation_reverse_failure () =
  let w, _plan, ctx, _ = lifeguard_world () in
  Dataplane.Failure.add w.failures reverse_failure_spec;
  let d' = Lifeguard.Isolation.isolate ctx ~src:o ~dst:e in
  Alcotest.(check bool) "direction" true
    (d'.Lifeguard.Isolation.direction = Lifeguard.Isolation.Reverse_failure);
  Alcotest.(check bool) "blames A" true
    (Lifeguard.Isolation.blamed_as d'.Lifeguard.Isolation.blame = Some a);
  Alcotest.(check bool) "used probes" true (d'.Lifeguard.Isolation.probes_used > 0);
  Alcotest.(check bool) "latency model positive" true (d'.Lifeguard.Isolation.elapsed > 0.0)

let test_isolation_no_failure () =
  let w, _plan, ctx, _ = lifeguard_world () in
  ignore w;
  let d' = Lifeguard.Isolation.isolate ctx ~src:o ~dst:e in
  Alcotest.(check bool) "no failure" true
    (d'.Lifeguard.Isolation.direction = Lifeguard.Isolation.No_failure)

let test_isolation_forward_failure () =
  let w, _plan, ctx, _ = lifeguard_world () in
  (* A drops traffic toward E's space: O -> E forward dies, E -> O works. *)
  Dataplane.Failure.add w.failures
    (Dataplane.Failure.spec ~toward:(infra e) (Dataplane.Failure.Node a));
  let d' = Lifeguard.Isolation.isolate ctx ~src:o ~dst:e in
  Alcotest.(check bool) "direction" true
    (d'.Lifeguard.Isolation.direction = Lifeguard.Isolation.Forward_failure);
  Alcotest.(check bool) "blames A" true
    (Lifeguard.Isolation.blamed_as d'.Lifeguard.Isolation.blame = Some a)

let test_isolation_destination_unreachable () =
  let w, _plan, ctx, _ = lifeguard_world () in
  (* E's only link is through A; kill everything through A toward anyone:
     no vantage point reaches E at all. *)
  Dataplane.Failure.add w.failures (Dataplane.Failure.spec (Dataplane.Failure.Node e));
  let d' = Lifeguard.Isolation.isolate ctx ~src:o ~dst:e in
  Alcotest.(check bool) "destination unreachable" true
    (d'.Lifeguard.Isolation.direction = Lifeguard.Isolation.Destination_unreachable)

let test_decide_gates () =
  let w, _plan, ctx, _ = lifeguard_world () in
  Dataplane.Failure.add w.failures reverse_failure_spec;
  let diagnosis = Lifeguard.Isolation.isolate ctx ~src:o ~dst:e in
  let config = Lifeguard.Decide.default_config in
  (* Too young. *)
  (match Lifeguard.Decide.decide config w.graph ~origin:o ~diagnosis ~outage_age:60.0 with
  | Lifeguard.Decide.Wait _ -> ()
  | v -> Alcotest.failf "expected Wait, got %a" Lifeguard.Decide.pp_verdict v);
  (* Old enough: poison A. *)
  (match Lifeguard.Decide.decide config w.graph ~origin:o ~diagnosis ~outage_age:400.0 with
  | Lifeguard.Decide.Poison target -> Alcotest.(check int) "poison A" 30 (Asn.to_int target)
  | v -> Alcotest.failf "expected Poison, got %a" Lifeguard.Decide.pp_verdict v);
  (* Forward failures are not poisoned. *)
  let forward_diag =
    { diagnosis with Lifeguard.Isolation.direction = Lifeguard.Isolation.Forward_failure }
  in
  (match Lifeguard.Decide.decide config w.graph ~origin:o ~diagnosis:forward_diag ~outage_age:400.0 with
  | Lifeguard.Decide.Hopeless _ -> ()
  | v -> Alcotest.failf "expected Hopeless, got %a" Lifeguard.Decide.pp_verdict v);
  (* No alternate path: pretend B (O's only provider) is to blame. *)
  let captive_diag =
    { diagnosis with Lifeguard.Isolation.blame = Lifeguard.Isolation.Blamed_as b }
  in
  match Lifeguard.Decide.decide config w.graph ~origin:o ~diagnosis:captive_diag ~outage_age:400.0 with
  | Lifeguard.Decide.Hopeless _ -> ()
  | v -> Alcotest.failf "expected Hopeless (no alternate), got %a" Lifeguard.Decide.pp_verdict v

let test_alternate_path_exists () =
  let w, _, _, _ = lifeguard_world () in
  Alcotest.(check bool) "E can avoid A" true
    (Lifeguard.Decide.alternate_path_exists w.graph ~src:e ~origin:o ~avoid:a);
  Alcotest.(check bool) "F cannot avoid A" false
    (Lifeguard.Decide.alternate_path_exists w.graph ~src:f ~origin:o ~avoid:a);
  Alcotest.(check bool) "nobody avoids B (sole provider)" false
    (Lifeguard.Decide.alternate_path_exists w.graph ~src:e ~origin:o ~avoid:b)

let test_plan_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "sentinel must cover production" true
    (raises (fun () ->
         Lifeguard.Remediate.plan ~sentinel:(prefix "198.51.100.0/23") ~origin:o ~production ()));
  Alcotest.(check bool) "sentinel must be less specific" true
    (raises (fun () -> Lifeguard.Remediate.plan ~sentinel:production ~origin:o ~production ()))

(* Packets into production die at A, so E's replies to a recovery probe
   reach O only when the probe is sourced inside the sentinel (E has a
   route back) but outside production (A lets them through). *)
let test_sentinel_unused_address () =
  let w, plan, _, _ = lifeguard_world () in
  Dataplane.Failure.add w.failures
    (Dataplane.Failure.spec ~toward:production (Dataplane.Failure.Node a));
  Alcotest.(check bool) "probe sourced in the sentinel's unused space" true
    (Lifeguard.Remediate.is_recovered w.probe plan ~through:e ~targets:[]);
  let no_sentinel = Lifeguard.Remediate.plan ~origin:o ~production () in
  Alcotest.(check bool) "probe sourced in production" false
    (Lifeguard.Remediate.is_recovered w.probe no_sentinel ~through:e ~targets:[])

let test_remediation_cycle () =
  let w, plan, _, _ = lifeguard_world () in
  (* Baseline: everyone sees O-O-O. *)
  (match Bgp.Network.best_route w.net e production with
  | Some entry ->
      Alcotest.(check int) "baseline length at E" 5
        (Bgp.As_path.length entry.Bgp.Route.ann.Bgp.Route.path)
  | None -> Alcotest.fail "no baseline at E");
  Lifeguard.Remediate.poison w.net plan ~target:a;
  converge w;
  Alcotest.(check bool) "A cut off from production" true
    (Bgp.Network.best_route w.net a production = None);
  check_path "E rerouted via D" [ 50; 40; 20; 10; 30; 10 ]
    (path_of_best (Bgp.Network.best_route w.net e production));
  Alcotest.(check bool) "A keeps the sentinel" true
    (Bgp.Network.best_route w.net a sentinel <> None);
  Lifeguard.Remediate.unpoison w.net plan;
  converge w;
  check_path "E back on the short path" [ 30; 20; 10; 10; 10 ]
    (path_of_best (Bgp.Network.best_route w.net e production))

let test_selective_poison_remediation () =
  (* O dual-homed: poison A via B only; A should keep the unpoisoned
     route heard through C. *)
  let g = Topology.As_graph.create () in
  let open Topology in
  List.iter (fun n -> As_graph.add_as g (asn n)) [ 1; 2; 3; 9 ];
  let o' = asn 1 and b' = asn 2 and c' = asn 3 and a' = asn 9 in
  As_graph.add_link g ~a:o' ~b:b' ~rel:Relationship.Provider;
  As_graph.add_link g ~a:o' ~b:c' ~rel:Relationship.Provider;
  As_graph.add_link g ~a:b' ~b:a' ~rel:Relationship.Provider;
  As_graph.add_link g ~a:c' ~b:a' ~rel:Relationship.Provider;
  let w = world_of_graph g in
  let plan = Lifeguard.Remediate.plan ~origin:o' ~production () in
  Lifeguard.Remediate.announce_baseline w.net plan;
  converge w;
  Lifeguard.Remediate.selective_poison w.net plan ~target:a' ~poisoned_via:[ b' ];
  converge w;
  (match Bgp.Network.best_route w.net a' production with
  | Some entry ->
      Alcotest.(check int) "A ingress forced to C" 3
        (Asn.to_int entry.Bgp.Route.neighbor)
  | None -> Alcotest.fail "A lost the route entirely");
  Lifeguard.Remediate.unpoison w.net plan;
  converge w

let test_is_recovered () =
  let w, plan, _, _ = lifeguard_world () in
  Dataplane.Failure.add w.failures reverse_failure_spec;
  Lifeguard.Remediate.poison w.net plan ~target:a;
  converge w;
  Alcotest.(check bool) "not recovered while A is broken" false
    (Lifeguard.Remediate.is_recovered w.probe plan ~through:a ~targets:[ e ]);
  Dataplane.Failure.remove w.failures reverse_failure_spec;
  Alcotest.(check bool) "recovered after heal" true
    (Lifeguard.Remediate.is_recovered w.probe plan ~through:a ~targets:[ e ])

let test_load_model () =
  let durations = Workloads.Outage_gen.durations ~seed:42 ~n:10308 () in
  let params = Lifeguard.Load_model.default_params in
  let anchor =
    Lifeguard.Load_model.daily_path_changes params ~durations ~i:0.01 ~t:1.0 ~d_minutes:15.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "anchor ~275 (got %.0f)" anchor)
    true
    (anchor > 250.0 && anchor < 300.0);
  (* Monotonicity: more deployment, more load; longer delay, less load. *)
  let at ~i ~t ~d = Lifeguard.Load_model.daily_path_changes params ~durations ~i ~t ~d_minutes:d in
  Alcotest.(check bool) "increasing in I" true (at ~i:0.5 ~t:1.0 ~d:15.0 > at ~i:0.1 ~t:1.0 ~d:15.0);
  Alcotest.(check bool) "increasing in T" true (at ~i:0.1 ~t:1.0 ~d:15.0 > at ~i:0.1 ~t:0.5 ~d:15.0);
  Alcotest.(check bool) "decreasing in d" true (at ~i:0.1 ~t:1.0 ~d:5.0 > at ~i:0.1 ~t:1.0 ~d:60.0);
  Alcotest.(check int) "grid size" 18 (List.length (Lifeguard.Load_model.table2 params ~durations))

let test_residual () =
  let durations = [| 100.0; 200.0; 400.0; 800.0 |] in
  (match Lifeguard.Decide.Residual.at ~durations ~elapsed:150.0 with
  | Some s ->
      Alcotest.(check int) "survivors" 3 s.Lifeguard.Decide.Residual.count;
      Alcotest.(check (float 0.001)) "median residual" 250.0 s.Lifeguard.Decide.Residual.median
  | None -> Alcotest.fail "expected stats");
  Alcotest.(check bool) "nobody past the max" true
    (Lifeguard.Decide.Residual.at ~durations ~elapsed:900.0 = None);
  Alcotest.(check (float 0.001)) "survival fraction" (2.0 /. 3.0)
    (Lifeguard.Decide.Residual.survival_fraction ~durations ~elapsed:150.0 ~horizon:250.0)

let test_orchestrator_end_to_end () =
  let w = fig2_world () in
  announce_all_infrastructure w;
  let plan = Lifeguard.Remediate.plan ~sentinel ~origin:o ~production () in
  let atlas = Measurement.Atlas.create () in
  let responsiveness = Measurement.Responsiveness.create () in
  let config =
    {
      Lifeguard.Orchestrator.default_config with
      Lifeguard.Orchestrator.decide = { Lifeguard.Decide.min_outage_age = 200.0 };
    }
  in
  let orc =
    Lifeguard.Orchestrator.create ~config ~env:w.probe ~atlas ~responsiveness ~plan
      ~vantage_points:[ d; c ] ()
  in
  converge w;
  Lifeguard.Orchestrator.watch orc ~targets:[ e ];
  Sim.Engine.run ~until:600.0 w.engine;
  Alcotest.(check bool) "idle while healthy" true (Lifeguard.Orchestrator.state orc = Lifeguard.Orchestrator.Idle);
  Dataplane.Failure.add w.failures reverse_failure_spec;
  Sim.Engine.run ~until:2400.0 w.engine;
  (match Lifeguard.Orchestrator.state orc with
  | Lifeguard.Orchestrator.Poisoned target -> Alcotest.(check int) "poisoned A" 30 (Asn.to_int target)
  | _ -> Alcotest.fail "expected poisoned state");
  Alcotest.(check bool) "E's connectivity to production repaired" true
    (Dataplane.Forward.delivers w.net w.failures ~src:e ~dst:(Prefix.nth_address production 9));
  (* Heal; the sentinel checks should unpoison. *)
  Dataplane.Failure.remove w.failures reverse_failure_spec;
  Sim.Engine.run ~until:3600.0 w.engine;
  Alcotest.(check bool) "back to idle" true (Lifeguard.Orchestrator.state orc = Lifeguard.Orchestrator.Idle);
  let events = Lifeguard.Orchestrator.events orc in
  let has f = List.exists (fun (_, ev) -> f ev) events in
  Alcotest.(check bool) "outage event" true
    (has (function Lifeguard.Orchestrator.Outage_detected _ -> true | _ -> false));
  Alcotest.(check bool) "diagnosis event" true
    (has (function Lifeguard.Orchestrator.Diagnosed _ -> true | _ -> false));
  Alcotest.(check bool) "poison event" true
    (has (function Lifeguard.Orchestrator.Poison_announced _ -> true | _ -> false));
  Alcotest.(check bool) "unpoison event" true
    (has (function Lifeguard.Orchestrator.Unpoisoned -> true | _ -> false));
  ignore (addr w e)

(* Bounded isolation retries: when every attempt is lost, the pipeline
   backs off 60 s then 120 s (doubling from the first delay) and gives up
   after the third attempt — a terminal outcome, never a wedge. *)
let test_orchestrator_isolation_retries () =
  let w = fig2_world () in
  announce_all_infrastructure w;
  let plan = Lifeguard.Remediate.plan ~sentinel ~origin:o ~production () in
  let atlas = Measurement.Atlas.create () in
  let responsiveness = Measurement.Responsiveness.create () in
  let hooks =
    {
      Lifeguard.Orchestrator.no_hooks with
      Lifeguard.Orchestrator.isolation_attempt = Some (fun ~target:_ ~attempt:_ -> `Lost);
    }
  in
  let orc =
    Lifeguard.Orchestrator.create ~hooks ~env:w.probe ~atlas ~responsiveness ~plan
      ~vantage_points:[ d; c ] ()
  in
  converge w;
  Lifeguard.Orchestrator.watch orc ~targets:[ e ];
  Sim.Engine.run ~until:600.0 w.engine;
  Dataplane.Failure.add w.failures reverse_failure_spec;
  Sim.Engine.run ~until:2400.0 w.engine;
  let events = Lifeguard.Orchestrator.events orc in
  let delays =
    List.filter_map
      (function
        | _, Lifeguard.Orchestrator.Isolation_retry { delay; _ } -> Some delay | _ -> None)
      events
  in
  Alcotest.(check (list (float 0.0))) "backoff delays" [ 60.0; 120.0 ] delays;
  Alcotest.(check bool) "never diagnosed" false
    (List.exists
       (function _, Lifeguard.Orchestrator.Diagnosed _ -> true | _ -> false)
       events);
  (match Lifeguard.Orchestrator.outcomes orc with
  | [ (_, target, Lifeguard.Orchestrator.Gave_up_on reason) ] ->
      Alcotest.(check int) "target" (Asn.to_int e) (Asn.to_int target);
      Alcotest.(check string) "terminal give-up" "isolation retry budget exhausted" reason
  | _ -> Alcotest.fail "expected exactly one Gave_up_on outcome");
  Alcotest.(check int) "no pipeline left" 0 (Lifeguard.Orchestrator.active_pipelines orc)

(* Two overlapping outages on disjoint prefixes: one reverse failure at A
   breaks both monitored targets at once. E (dual-homed) gets the poison;
   F (captive behind A, invisible to the vantage points valley-free) runs
   its own concurrent pipeline and stands down as unreachable. The
   unpoison is paced: even though the sentinel sees the repair early, the
   withdrawal waits out [announce_spacing] from the poison announcement. *)
let test_orchestrator_reentrancy () =
  let w = fig2_world () in
  announce_all_infrastructure w;
  let plan = Lifeguard.Remediate.plan ~sentinel ~origin:o ~production () in
  let atlas = Measurement.Atlas.create () in
  let responsiveness = Measurement.Responsiveness.create () in
  let config =
    {
      Lifeguard.Orchestrator.default_config with
      Lifeguard.Orchestrator.decide = { Lifeguard.Decide.min_outage_age = 200.0 };
      announce_spacing = 3600.0;
    }
  in
  let orc =
    Lifeguard.Orchestrator.create ~config ~env:w.probe ~atlas ~responsiveness ~plan
      ~vantage_points:[ d; c ] ()
  in
  converge w;
  Lifeguard.Orchestrator.watch orc ~targets:[ e; f ];
  Sim.Engine.run ~until:600.0 w.engine;
  Dataplane.Failure.add w.failures reverse_failure_spec;
  (* Shortly after detection both targets must be mid-pipeline at once. *)
  Sim.Engine.run ~until:730.0 w.engine;
  Alcotest.(check int) "two concurrent pipelines" 2
    (Lifeguard.Orchestrator.active_pipelines orc);
  Sim.Engine.run ~until:2000.0 w.engine;
  (match Lifeguard.Orchestrator.state orc with
  | Lifeguard.Orchestrator.Poisoned target ->
      Alcotest.(check int) "poisoned A" 30 (Asn.to_int target)
  | _ -> Alcotest.fail "expected poisoned state");
  let events () = Lifeguard.Orchestrator.events orc in
  let count f = List.length (List.filter (fun (_, ev) -> f ev) (events ())) in
  Alcotest.(check int) "both targets detected" 2
    (count (function Lifeguard.Orchestrator.Outage_detected _ -> true | _ -> false));
  Alcotest.(check int) "one poison for the shared prefix" 1
    (count (function Lifeguard.Orchestrator.Poison_announced _ -> true | _ -> false));
  (* Heal. The sentinel sees the repair quickly, but the withdrawal must
     wait out the damping margin from the poison announcement. *)
  Dataplane.Failure.remove w.failures reverse_failure_spec;
  Sim.Engine.run ~until:4000.0 w.engine;
  Alcotest.(check int) "repair seen" 1
    (count (function Lifeguard.Orchestrator.Recovery_detected _ -> true | _ -> false));
  Alcotest.(check int) "unpoison still paced" 0
    (count (function Lifeguard.Orchestrator.Unpoisoned -> true | _ -> false));
  Sim.Engine.run ~until:7200.0 w.engine;
  Alcotest.(check int) "unpoisoned after the spacing" 1
    (count (function Lifeguard.Orchestrator.Unpoisoned -> true | _ -> false));
  Alcotest.(check bool) "idle again" true
    (Lifeguard.Orchestrator.state orc = Lifeguard.Orchestrator.Idle);
  Alcotest.(check int) "no pipelines left" 0 (Lifeguard.Orchestrator.active_pipelines orc);
  (* Pacing is measurable in the log: poison -> unpoison >= spacing. *)
  let time_of f =
    match List.find_opt (fun (_, ev) -> f ev) (events ()) with
    | Some (ts, _) -> ts
    | None -> Alcotest.fail "expected event"
  in
  let poison_at =
    time_of (function Lifeguard.Orchestrator.Poison_announced _ -> true | _ -> false)
  in
  let unpoison_at = time_of (function Lifeguard.Orchestrator.Unpoisoned -> true | _ -> false) in
  Alcotest.(check bool) "damping margin respected" true (unpoison_at -. poison_at >= 3600.0);
  (* Terminal accounting: E repaired, F stood down (captive behind A). *)
  let outcomes = Lifeguard.Orchestrator.outcomes orc in
  let outcome_of target =
    List.find_map
      (fun (_, t', oc) -> if Asn.equal t' target then Some oc else None)
      outcomes
  in
  (match outcome_of e with
  | Some Lifeguard.Orchestrator.Repaired -> ()
  | _ -> Alcotest.fail "expected E repaired");
  (match outcome_of f with
  | Some (Lifeguard.Orchestrator.Stood_down _) -> ()
  | _ -> Alcotest.fail "expected F stood down");
  check_path "E back on the short path" [ 30; 20; 10; 10; 10 ]
    (path_of_best (Bgp.Network.best_route w.net e production))

(* Regression for a dropped remediation: two pipelines blame *different*
   ASes and both verdicts land inside the announce-spacing window left by
   a previous unpoison, so both poisons queue and two delayed pumps fire
   back to back. The first pump announces its poison; the second must
   leave the other target's remediation queued — not dequeue and discard
   it — so every outage still reaches a terminal outcome. Extends fig. 2
   with A2/G mirroring A/E: G prefers the short path through A2 and falls
   back to G-D-C-B-O when A2 is poisoned. *)
let a2 = asn 80
let g = asn 90

let fig2_plus_graph () =
  let gr = fig2_graph () in
  Topology.As_graph.add_as gr ~tier:2 a2;
  Topology.As_graph.add_as gr ~tier:4 g;
  Topology.As_graph.add_link gr ~a:b ~b:a2 ~rel:Topology.Relationship.Provider;
  Topology.As_graph.add_link gr ~a:g ~b:a2 ~rel:Topology.Relationship.Provider;
  Topology.As_graph.add_link gr ~a:g ~b:d ~rel:Topology.Relationship.Provider;
  gr

let test_orchestrator_queue_not_dropped () =
  let w = world_of_graph (fig2_plus_graph ()) in
  announce_all_infrastructure w;
  let plan = Lifeguard.Remediate.plan ~sentinel ~origin:o ~production () in
  let atlas = Measurement.Atlas.create () in
  let responsiveness = Measurement.Responsiveness.create () in
  let config =
    {
      Lifeguard.Orchestrator.default_config with
      Lifeguard.Orchestrator.decide = { Lifeguard.Decide.min_outage_age = 200.0 };
      announce_spacing = 3600.0;
    }
  in
  let orc =
    Lifeguard.Orchestrator.create ~config ~env:w.probe ~atlas ~responsiveness ~plan
      ~vantage_points:[ d; c ] ()
  in
  converge w;
  Lifeguard.Orchestrator.watch orc ~targets:[ e; g ];
  let fail_a = reverse_failure_spec in
  let fail_a2 = Dataplane.Failure.spec ~toward:sentinel (Dataplane.Failure.Node a2) in
  (* Round 1: a single outage, poisoned and repaired, so last_announce is
     recent when round 2's verdicts arrive. *)
  Sim.Engine.run ~until:600.0 w.engine;
  Dataplane.Failure.add w.failures fail_a;
  Sim.Engine.run ~until:2500.0 w.engine;
  (match Lifeguard.Orchestrator.state orc with
  | Lifeguard.Orchestrator.Poisoned target ->
      Alcotest.(check int) "round 1 poisons A" 30 (Asn.to_int target)
  | _ -> Alcotest.fail "expected poisoned state");
  Dataplane.Failure.remove w.failures fail_a;
  Sim.Engine.run ~until:6000.0 w.engine;
  Alcotest.(check bool) "idle between rounds" true
    (Lifeguard.Orchestrator.state orc = Lifeguard.Orchestrator.Idle);
  (* Round 2: two concurrent outages blamed on different ASes. Both
     verdicts arrive while the prefix is free but inside the spacing
     window from round 1's unpoison, so both remediations queue. *)
  Dataplane.Failure.add w.failures fail_a;
  Dataplane.Failure.add w.failures fail_a2;
  Sim.Engine.run ~until:9500.0 w.engine;
  (match Lifeguard.Orchestrator.state orc with
  | Lifeguard.Orchestrator.Poisoned _ -> ()
  | _ -> Alcotest.fail "expected one round-2 poison announced");
  Alcotest.(check int) "the other remediation is still queued" 1
    (Lifeguard.Orchestrator.queued_poisons orc);
  Alcotest.(check int) "no pipeline left open" 0 (Lifeguard.Orchestrator.active_pipelines orc);
  (* Heal everything: the announced poison unpoisons after the spacing;
     the queued remediation is taken only at send time and stands down as
     already resolved — it must not have been silently discarded. *)
  Dataplane.Failure.remove w.failures fail_a;
  Dataplane.Failure.remove w.failures fail_a2;
  Sim.Engine.run ~until:18000.0 w.engine;
  Alcotest.(check bool) "idle at the end" true
    (Lifeguard.Orchestrator.state orc = Lifeguard.Orchestrator.Idle);
  Alcotest.(check int) "queue drained" 0 (Lifeguard.Orchestrator.queued_poisons orc);
  let events = Lifeguard.Orchestrator.events orc in
  let count f = List.length (List.filter (fun (_, ev) -> f ev) events) in
  Alcotest.(check int) "three detections, none duplicated" 3
    (count (function Lifeguard.Orchestrator.Outage_detected _ -> true | _ -> false));
  Alcotest.(check int) "two poisons announced" 2
    (count (function Lifeguard.Orchestrator.Poison_announced _ -> true | _ -> false));
  Alcotest.(check int) "two withdrawals" 2
    (count (function Lifeguard.Orchestrator.Unpoisoned -> true | _ -> false));
  let outcomes = Lifeguard.Orchestrator.outcomes orc in
  Alcotest.(check int) "every outage reached a terminal outcome" 3 (List.length outcomes);
  let repaired =
    List.filter
      (fun (_, _, oc) ->
        match oc with Lifeguard.Orchestrator.Repaired -> true | _ -> false)
      outcomes
  in
  Alcotest.(check int) "round 1 and the announced round-2 poison repaired" 2
    (List.length repaired)

(* Watchdog regressions. All three run the fig. 2 world with the A
   reverse failure; they differ in what the control plane does to the
   poison after it is announced. *)
let watchdog_world ~announce_spacing =
  let w = fig2_world () in
  announce_all_infrastructure w;
  let plan = Lifeguard.Remediate.plan ~sentinel ~origin:o ~production () in
  let atlas = Measurement.Atlas.create () in
  let responsiveness = Measurement.Responsiveness.create () in
  let config =
    {
      Lifeguard.Orchestrator.default_config with
      Lifeguard.Orchestrator.decide = { Lifeguard.Decide.min_outage_age = 200.0 };
      announce_spacing;
    }
  in
  let orc =
    Lifeguard.Orchestrator.create ~config ~env:w.probe ~atlas ~responsiveness ~plan
      ~vantage_points:[ d; c ] ()
  in
  converge w;
  Lifeguard.Orchestrator.watch orc ~targets:[ e ];
  (w, orc)

let count_events orc f =
  List.length (List.filter (fun (_, ev) -> f ev) (Lifeguard.Orchestrator.events orc))

(* The poison announcement is lost on the wire (every O -> B update
   dropped), so the vantage feeds keep showing the stale baseline. Once
   the wire heals, the watchdog must re-announce idempotently — exactly
   once, paced by announce_spacing — and the repair must then complete
   normally. *)
let test_watchdog_reannounce_after_lost_poison () =
  let w, orc = watchdog_world ~announce_spacing:1800.0 in
  Sim.Engine.run ~until:600.0 w.engine;
  Dataplane.Failure.add w.failures reverse_failure_spec;
  Bgp.Network.set_link_faults w.net
    (Some (fun ~from ~to_ -> if Asn.equal from o && Asn.equal to_ b then `Drop else `Deliver));
  Sim.Engine.run ~until:2400.0 w.engine;
  (match Lifeguard.Orchestrator.state orc with
  | Lifeguard.Orchestrator.Poisoned target -> Alcotest.(check int) "poisoned A" 30 (Asn.to_int target)
  | _ -> Alcotest.fail "expected poisoned state");
  Alcotest.(check int) "poison not yet confirmed (lost on the wire)" 0
    (count_events orc
       (function Lifeguard.Orchestrator.Poison_confirmed _ -> true | _ -> false));
  (* Wire heals; the stale vantage views must now trigger exactly one
     idempotent re-announcement once the spacing window opens. *)
  Bgp.Network.set_link_faults w.net None;
  Sim.Engine.run ~until:6000.0 w.engine;
  Alcotest.(check int) "re-announced exactly once" 1 (Lifeguard.Orchestrator.reannounce_count orc);
  Alcotest.(check int) "one re-announce event" 1
    (count_events orc
       (function Lifeguard.Orchestrator.Poison_reannounced _ -> true | _ -> false));
  Alcotest.(check int) "confirmed after the re-announce" 1
    (count_events orc
       (function Lifeguard.Orchestrator.Poison_confirmed _ -> true | _ -> false));
  Alcotest.(check int) "initial announcement not duplicated" 1
    (count_events orc
       (function Lifeguard.Orchestrator.Poison_announced _ -> true | _ -> false));
  (* Heal the outage: the repair completes through the normal path. *)
  Dataplane.Failure.remove w.failures reverse_failure_spec;
  Sim.Engine.run ~until:12000.0 w.engine;
  Alcotest.(check bool) "idle at the end" true
    (Lifeguard.Orchestrator.state orc = Lifeguard.Orchestrator.Idle);
  Alcotest.(check int) "no rollback" 0 (Lifeguard.Orchestrator.rollback_count orc);
  Alcotest.(check bool) "breaker never opened" false
    (Lifeguard.Orchestrator.breaker_open orc ~target:a);
  (match Lifeguard.Orchestrator.outcomes orc with
  | [ (_, t', Lifeguard.Orchestrator.Repaired) ] ->
      Alcotest.(check int) "E repaired" 60 (Asn.to_int t')
  | _ -> Alcotest.fail "expected exactly one Repaired outcome")

(* The wire never heals: the poison cannot propagate, so the watchdog
   must roll it back at the deadline, record a give-up, and open the
   circuit breaker — and the next detection of the same outage must be
   refused by the breaker instead of re-poisoning forever. *)
let test_watchdog_rollback_and_breaker () =
  let w, orc = watchdog_world ~announce_spacing:1800.0 in
  Sim.Engine.run ~until:600.0 w.engine;
  Dataplane.Failure.add w.failures reverse_failure_spec;
  Bgp.Network.set_link_faults w.net
    (Some (fun ~from ~to_ -> if Asn.equal from o && Asn.equal to_ b then `Drop else `Deliver));
  Sim.Engine.run ~until:9000.0 w.engine;
  Alcotest.(check int) "one rollback" 1 (Lifeguard.Orchestrator.rollback_count orc);
  Alcotest.(check int) "one rollback event" 1
    (count_events orc
       (function Lifeguard.Orchestrator.Poison_rolled_back _ -> true | _ -> false));
  Alcotest.(check bool) "watchdog retried the announcement first" true
    (Lifeguard.Orchestrator.reannounce_count orc >= 1);
  Alcotest.(check int) "the failed poison was withdrawn" 1
    (count_events orc (function Lifeguard.Orchestrator.Unpoisoned -> true | _ -> false));
  Alcotest.(check bool) "breaker open for A" true
    (Lifeguard.Orchestrator.breaker_open orc ~target:a);
  Alcotest.(check bool) "no poison left standing" true
    (Lifeguard.Orchestrator.state orc <> Lifeguard.Orchestrator.Poisoned a);
  Alcotest.(check int) "nothing queued" 0 (Lifeguard.Orchestrator.queued_poisons orc);
  (* The same outage comes back (monitors are edge-triggered, so let it
     recover first): the new pipeline's poison verdict must now be
     refused by the open breaker instead of re-poisoning A. *)
  Dataplane.Failure.remove w.failures reverse_failure_spec;
  Sim.Engine.run ~until:9400.0 w.engine;
  Dataplane.Failure.add w.failures reverse_failure_spec;
  Sim.Engine.run ~until:13000.0 w.engine;
  Alcotest.(check bool) "re-poisoning refused by the breaker" true
    (Lifeguard.Orchestrator.breaker_trip_count orc >= 1);
  Alcotest.(check bool) "breaker events logged" true
    (count_events orc (function Lifeguard.Orchestrator.Breaker_open _ -> true | _ -> false) >= 1);
  Alcotest.(check int) "still just the one rollback" 1 (Lifeguard.Orchestrator.rollback_count orc);
  let outcomes = Lifeguard.Orchestrator.outcomes orc in
  Alcotest.(check bool) "terminal outcomes recorded" true (List.length outcomes >= 1);
  List.iter
    (fun (_, _, oc) ->
      match oc with
      | Lifeguard.Orchestrator.Gave_up_on _ -> ()
      | Lifeguard.Orchestrator.Repaired | Lifeguard.Orchestrator.Stood_down _ ->
          Alcotest.fail "expected give-ups only")
    outcomes

(* A session reset while the poison stands: the flap flushes B's RIBs,
   but re-establishment re-syncs the adj-RIB-out, so the poison comes
   back on its own — the watchdog must NOT burn an announcement on it. *)
let test_watchdog_session_reset_resync () =
  let w, orc = watchdog_world ~announce_spacing:1800.0 in
  Sim.Engine.run ~until:600.0 w.engine;
  Dataplane.Failure.add w.failures reverse_failure_spec;
  Sim.Engine.run ~until:2400.0 w.engine;
  (match Lifeguard.Orchestrator.state orc with
  | Lifeguard.Orchestrator.Poisoned _ -> ()
  | _ -> Alcotest.fail "expected poisoned state");
  Alcotest.(check int) "confirmed before the flap" 1
    (count_events orc
       (function Lifeguard.Orchestrator.Poison_confirmed _ -> true | _ -> false));
  (* Flap the O-B session: RIB flush both sides, immediate re-sync. *)
  Bgp.Network.fail_link w.net ~a:o ~b;
  Bgp.Network.restore_link w.net ~a:o ~b;
  Sim.Engine.run ~until:4800.0 w.engine;
  Alcotest.(check int) "no watchdog re-announce needed" 0
    (Lifeguard.Orchestrator.reannounce_count orc);
  (match Lifeguard.Orchestrator.state orc with
  | Lifeguard.Orchestrator.Poisoned _ -> ()
  | _ -> Alcotest.fail "poison must survive the session reset");
  Dataplane.Failure.remove w.failures reverse_failure_spec;
  Sim.Engine.run ~until:9000.0 w.engine;
  Alcotest.(check bool) "idle at the end" true
    (Lifeguard.Orchestrator.state orc = Lifeguard.Orchestrator.Idle);
  Alcotest.(check int) "no rollback" 0 (Lifeguard.Orchestrator.rollback_count orc);
  (match Lifeguard.Orchestrator.outcomes orc with
  | [ (_, _, Lifeguard.Orchestrator.Repaired) ] -> ()
  | _ -> Alcotest.fail "expected exactly one Repaired outcome")

let suite =
  [
    Alcotest.test_case "isolation: reverse failure" `Quick test_isolation_reverse_failure;
    Alcotest.test_case "isolation: no failure" `Quick test_isolation_no_failure;
    Alcotest.test_case "isolation: forward failure" `Quick test_isolation_forward_failure;
    Alcotest.test_case "isolation: destination unreachable" `Quick
      test_isolation_destination_unreachable;
    Alcotest.test_case "decision gates" `Quick test_decide_gates;
    Alcotest.test_case "alternate path check" `Quick test_alternate_path_exists;
    Alcotest.test_case "plan validation" `Quick test_plan_validation;
    Alcotest.test_case "sentinel unused address" `Quick test_sentinel_unused_address;
    Alcotest.test_case "remediation cycle" `Quick test_remediation_cycle;
    Alcotest.test_case "selective poison remediation" `Quick test_selective_poison_remediation;
    Alcotest.test_case "recovery detection" `Quick test_is_recovered;
    Alcotest.test_case "load model" `Quick test_load_model;
    Alcotest.test_case "orchestrator re-entrancy + paced unpoison" `Quick
      test_orchestrator_reentrancy;
    Alcotest.test_case "orchestrator queued poisons are never dropped" `Quick
      test_orchestrator_queue_not_dropped;
    Alcotest.test_case "residual durations" `Quick test_residual;
    Alcotest.test_case "orchestrator end-to-end" `Quick test_orchestrator_end_to_end;
    Alcotest.test_case "orchestrator isolation retries back off, then give up" `Quick
      test_orchestrator_isolation_retries;
    Alcotest.test_case "watchdog re-announces a lost poison exactly once" `Quick
      test_watchdog_reannounce_after_lost_poison;
    Alcotest.test_case "watchdog rollback + circuit breaker" `Quick
      test_watchdog_rollback_and_breaker;
    Alcotest.test_case "session reset re-syncs the poison" `Quick
      test_watchdog_session_reset_resync;
  ]
