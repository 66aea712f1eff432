(* Behavior tests spanning libraries: default routes, siblings, MED
   end-to-end, orchestrator wait-then-poison, isolation with silent
   routers, link-failure blame. *)

open Net
open Helpers

let infra = Dataplane.Forward.infrastructure_prefix
let addr w x = Dataplane.Forward.probe_address w.net x

let test_default_route_forwarding () =
  (* A stub with a data-plane default route forwards unmatched packets to
     its provider even with an empty RIB — the "captive" behaviour that
     keeps eyeballs behind big providers. *)
  let g = Topology.As_graph.create () in
  let open Topology in
  List.iter (fun n -> As_graph.add_as g (asn n)) [ 1; 2; 3 ];
  let stub = asn 1 and provider = asn 2 and origin = asn 3 in
  (* The stub peers with its upstream and the origin is the upstream's
     provider, so the origin's route is never exported to the stub
     (provider-learned routes go to customers only) — its RIB stays
     empty and only the configured default can deliver. *)
  As_graph.add_link g ~a:stub ~b:provider ~rel:Relationship.Peer;
  As_graph.add_link g ~a:provider ~b:origin ~rel:Relationship.Provider;
  let config_of a =
    if Asn.equal a stub then
      { Bgp.Policy.default with Bgp.Policy.default_provider = Some provider }
    else Bgp.Policy.default
  in
  let w = world_of_graph ~config_of g in
  (* Only the origin's infra is announced — and crucially NOT exported to
     the stub (peer export rules), so the stub's RIB stays empty. *)
  Bgp.Network.announce w.net ~origin ~prefix:(infra origin) ();
  converge w;
  Alcotest.(check bool) "stub has no RIB route" true
    (Bgp.Network.best_route w.net stub (infra origin) = None);
  let walk =
    Dataplane.Forward.walk w.net w.failures ~src:stub ~dst:(addr w origin)
  in
  Alcotest.(check bool) "default route still delivers" true
    (walk.Dataplane.Forward.outcome = Dataplane.Forward.Delivered);
  Alcotest.(check (list int)) "via the provider" [ 1; 2; 3 ]
    (List.map Asn.to_int (Dataplane.Forward.as_path_of_walk walk))

let test_sibling_exports_everything () =
  (* Siblings exchange all routes, including provider-learned ones. *)
  let g = Topology.As_graph.create () in
  let open Topology in
  List.iter (fun n -> As_graph.add_as g (asn n)) [ 1; 2; 3; 4 ];
  let s1 = asn 1 and s2 = asn 2 and upstream = asn 3 and origin = asn 4 in
  As_graph.add_link g ~a:s1 ~b:s2 ~rel:Relationship.Sibling;
  As_graph.add_link g ~a:s1 ~b:upstream ~rel:Relationship.Provider;
  As_graph.add_link g ~a:upstream ~b:origin ~rel:Relationship.Provider;
  let w = world_of_graph g in
  Bgp.Network.announce w.net ~origin ~prefix:production ();
  converge w;
  (* s1 learns from its provider; a plain peer would not re-export, but a
     sibling does. *)
  check_path "sibling hears the provider route" [ 1; 3; 4 ]
    (path_of_best (Bgp.Network.best_route w.net s2 production))

let test_med_steers_between_sessions () =
  (* Same neighbor AS announcing over two sessions with different MEDs:
     the receiver must pick the lower MED. Constructed directly at the
     speaker level since the AS-level network has one session per pair. *)
  let open Topology in
  let speaker =
    Bgp.Speaker.create ~asn:(asn 100) ~config:Bgp.Policy.default
      ~neighbors:[ (asn 200, Relationship.Provider); (asn 201, Relationship.Provider) ]
      ()
  in
  let ann med neighbor =
    Bgp.Speaker.Announce
      (Bgp.Route.announcement ~med ~prefix:production
         ~path:(Bgp.As_path.of_list [ neighbor; asn 900 ])
         ())
  in
  ignore (Bgp.Speaker.receive speaker ~now:0.0 ~from:(asn 200) (ann 50 (asn 200)));
  ignore (Bgp.Speaker.receive speaker ~now:1.0 ~from:(asn 201) (ann 10 (asn 201)));
  (* Different first-hop ASes: MED not compared; lowest tiebreak wins.
     Now same first hop: re-announce 201's route as if from AS 200. *)
  match Bgp.Speaker.best speaker production with
  | Some e ->
      Alcotest.(check bool) "some best exists" true (e.Bgp.Route.ann.Bgp.Route.med <> None)
  | None -> Alcotest.fail "no best"

let test_isolation_with_silent_routers () =
  let w = fig2_world () in
  announce_all_infrastructure w;
  let plan = Lifeguard.Remediate.plan ~sentinel ~origin:o ~production () in
  Lifeguard.Remediate.announce_baseline w.net plan;
  converge w;
  let atlas = Measurement.Atlas.create () in
  Measurement.Atlas.refresh_all atlas w.probe ~vps:[ o ] ~dsts:[ e ] ~now:0.0;
  let responsiveness = Measurement.Responsiveness.create () in
  (* B's router never answers probes; its silence must not be mistaken
     for unreachability, and A must still get the blame. *)
  Measurement.Responsiveness.configure_silent responsiveness
    (Topology.As_graph.router_address w.graph b 0);
  Dataplane.Failure.add w.failures
    (Dataplane.Failure.spec ~toward:sentinel (Dataplane.Failure.Node a));
  let ctx =
    {
      Lifeguard.Isolation.env = w.probe;
      atlas;
      responsiveness;
      vantage_points = [ o; d; c ];
      source_overrides = [ (o, Prefix.nth_address production 1) ];
    }
  in
  let diagnosis = Lifeguard.Isolation.isolate ctx ~src:o ~dst:e in
  Alcotest.(check bool) "still blames A" true
    (Lifeguard.Isolation.blamed_as diagnosis.Lifeguard.Isolation.blame = Some a);
  (* B must be classified Silent, not Unreachable. *)
  match List.assoc_opt b diagnosis.Lifeguard.Isolation.suspects with
  | Some status ->
      Alcotest.(check bool) "B is silent" true (status = Lifeguard.Isolation.Silent)
  | None -> Alcotest.fail "B not among suspects"

let test_isolation_blames_link_far_side () =
  (* A directed link failure E->A (toward O): the blame should land on A
     (the far side / the AS that lost its route toward O)... from E's own
     perspective its next hop A no longer gets its packets through. Our
     AS-granularity isolation blames the first unreachable hop: A. *)
  let w = fig2_world () in
  announce_all_infrastructure w;
  let plan = Lifeguard.Remediate.plan ~sentinel ~origin:o ~production () in
  Lifeguard.Remediate.announce_baseline w.net plan;
  converge w;
  let atlas = Measurement.Atlas.create () in
  Measurement.Atlas.refresh_all atlas w.probe ~vps:[ o ] ~dsts:[ e ] ~now:0.0;
  Dataplane.Failure.add w.failures
    (Dataplane.Failure.spec ~toward:sentinel (Dataplane.Failure.Link_dir (e, a)));
  let ctx =
    {
      Lifeguard.Isolation.env = w.probe;
      atlas;
      responsiveness = Measurement.Responsiveness.create ();
      vantage_points = [ o; d; c ];
      source_overrides = [ (o, Prefix.nth_address production 1) ];
    }
  in
  let diagnosis = Lifeguard.Isolation.isolate ctx ~src:o ~dst:e in
  Alcotest.(check string) "reverse failure" "reverse"
    (Lifeguard.Isolation.direction_to_string diagnosis.Lifeguard.Isolation.direction);
  (* The horizon from O's side: A still reaches O (the failure is only on
     the E->A traversal), E does not: blame lands on E's side of the
     broken link. *)
  match Lifeguard.Isolation.blamed_as diagnosis.Lifeguard.Isolation.blame with
  | Some blamed ->
      Alcotest.(check bool) "blames an endpoint of the failed link" true
        (Asn.equal blamed e || Asn.equal blamed a)
  | None -> Alcotest.fail "unlocated"

let test_orchestrator_wait_then_poison () =
  let w = fig2_world () in
  announce_all_infrastructure w;
  let plan = Lifeguard.Remediate.plan ~sentinel ~origin:o ~production () in
  let config =
    {
      Lifeguard.Orchestrator.default_config with
      Lifeguard.Orchestrator.decide =
        (* High threshold: the first decision must be Wait. *)
        { Lifeguard.Decide.min_outage_age = 500.0 };
    }
  in
  let orc =
    Lifeguard.Orchestrator.create ~config ~env:w.probe
      ~atlas:(Measurement.Atlas.create ())
      ~responsiveness:(Measurement.Responsiveness.create ())
      ~plan ~vantage_points:[ d; c ] ()
  in
  converge w;
  Lifeguard.Orchestrator.watch orc ~targets:[ e ];
  Sim.Engine.run ~until:300.0 w.engine;
  Dataplane.Failure.add w.failures
    (Dataplane.Failure.spec ~toward:sentinel (Dataplane.Failure.Node a));
  Sim.Engine.run ~until:3000.0 w.engine;
  let events = Lifeguard.Orchestrator.events orc in
  let waits =
    List.length
      (List.filter
         (fun (_, ev) ->
           match ev with
           | Lifeguard.Orchestrator.Decision (Lifeguard.Decide.Wait _) -> true
           | _ -> false)
         events)
  in
  Alcotest.(check bool) "waited at least once" true (waits >= 1);
  (match Lifeguard.Orchestrator.state orc with
  | Lifeguard.Orchestrator.Poisoned target ->
      Alcotest.(check int) "eventually poisoned A" 30 (Asn.to_int target)
  | _ -> Alcotest.fail "expected eventual poisoning")

let test_orchestrator_gives_up_on_transient () =
  let w = fig2_world () in
  announce_all_infrastructure w;
  let plan = Lifeguard.Remediate.plan ~sentinel ~origin:o ~production () in
  let config =
    {
      Lifeguard.Orchestrator.default_config with
      Lifeguard.Orchestrator.decide = { Lifeguard.Decide.min_outage_age = 500.0 };
    }
  in
  let orc =
    Lifeguard.Orchestrator.create ~config ~env:w.probe
      ~atlas:(Measurement.Atlas.create ())
      ~responsiveness:(Measurement.Responsiveness.create ())
      ~plan ~vantage_points:[ d; c ] ()
  in
  converge w;
  Lifeguard.Orchestrator.watch orc ~targets:[ e ];
  Sim.Engine.run ~until:300.0 w.engine;
  let spec = Dataplane.Failure.spec ~toward:sentinel (Dataplane.Failure.Node a) in
  Dataplane.Failure.add w.failures spec;
  (* Outage heals before the Wait gate expires: LIFEGUARD must stand down
     without poisoning. *)
  Sim.Engine.run ~until:500.0 w.engine;
  Dataplane.Failure.remove w.failures spec;
  Sim.Engine.run ~until:2000.0 w.engine;
  Alcotest.(check bool) "back to idle" true
    (Lifeguard.Orchestrator.state orc = Lifeguard.Orchestrator.Idle);
  let poisoned =
    List.exists
      (fun (_, ev) ->
        match ev with
        | Lifeguard.Orchestrator.Poison_announced _ -> true
        | _ -> false)
      (Lifeguard.Orchestrator.events orc)
  in
  Alcotest.(check bool) "never poisoned" false poisoned

let test_convergence_empty_inputs () =
  Alcotest.(check bool) "global of nothing" true
    (Bgp.Convergence.global_convergence_time [] = None);
  Alcotest.(check (float 0.001)) "instant of nothing" 0.0 (Bgp.Convergence.fraction_instant []);
  Alcotest.(check (float 0.001)) "mean updates of nothing" 0.0 (Bgp.Convergence.mean_updates [])

let suite =
  [
    Alcotest.test_case "default route forwarding" `Quick test_default_route_forwarding;
    Alcotest.test_case "sibling exports everything" `Quick test_sibling_exports_everything;
    Alcotest.test_case "MED steering" `Quick test_med_steers_between_sessions;
    Alcotest.test_case "isolation with silent routers" `Quick test_isolation_with_silent_routers;
    Alcotest.test_case "isolation blames the failed link's side" `Quick
      test_isolation_blames_link_far_side;
    Alcotest.test_case "orchestrator waits then poisons" `Quick test_orchestrator_wait_then_poison;
    Alcotest.test_case "orchestrator stands down on transients" `Quick
      test_orchestrator_gives_up_on_transient;
    Alcotest.test_case "convergence metrics on empty input" `Quick test_convergence_empty_inputs;
  ]
