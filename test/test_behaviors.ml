(* Behavior tests spanning libraries: no route without a RIB entry, the
   decision and export rules as tables, orchestrator wait-then-poison,
   isolation with silent routers, link-failure blame. *)

open Net
open Helpers

let infra = Dataplane.Forward.infrastructure_prefix
let addr w x = Dataplane.Forward.probe_address w.net x

let test_no_route_without_rib_entry () =
  (* No data-plane default routes: a stub whose RIB holds no route to the
     destination drops the packet at itself, even with a provider that
     has one. *)
  let g = Topology.As_graph.create () in
  let open Topology in
  List.iter (fun n -> As_graph.add_as g (asn n)) [ 1; 2; 3 ];
  let stub = asn 1 and upstream = asn 2 and origin = asn 3 in
  (* The stub peers with its upstream and the origin is the upstream's
     provider, so the origin's route is never exported to the stub
     (provider-learned routes go to customers only). *)
  As_graph.add_link g ~a:stub ~b:upstream ~rel:Relationship.Peer;
  As_graph.add_link g ~a:upstream ~b:origin ~rel:Relationship.Provider;
  let w = world_of_graph g in
  Bgp.Network.announce w.net ~origin ~prefix:(infra origin) ();
  converge w;
  Alcotest.(check bool) "upstream has a route" true
    (Bgp.Network.best_route w.net upstream (infra origin) <> None);
  Alcotest.(check bool) "stub has no RIB route" true
    (Bgp.Network.best_route w.net stub (infra origin) = None);
  let dst = addr w origin in
  let walk = Dataplane.Forward.walk w.net w.failures ~src:stub ~dst in
  Alcotest.(check bool) "walk ends in No_route at the stub" true
    (walk.Dataplane.Forward.outcome = Dataplane.Forward.No_route stub);
  Alcotest.(check (list int)) "never leaves the stub" [ 1 ]
    (List.map Asn.to_int (Dataplane.Forward.as_path_of_walk walk));
  Alcotest.(check bool) "delivers is false" false
    (Dataplane.Forward.delivers w.net w.failures ~src:stub ~dst)

(* The decision process as an oracle: the best candidate is the maximum
   of the documented key (local_pref, -path_len, -tiebreak, -neighbor).
   Few distinct values per field keep ties on the leading fields common,
   and unsalted lists (every tiebreak 0) reach the neighbor step, so
   every step of the order gets exercised. *)
let prop_decision_is_key_maximum =
  let entry salt (neighbor, local_pref, len) =
    Bgp.Route.make_entry
      ~ann:
        (Bgp.Route.announcement ~prefix:production
           ~path:(as_path (List.init len (fun i -> asn (900 + i)))))
      ~neighbor:(asn neighbor) ~rel:Topology.Relationship.Provider ~local_pref
      ~tiebreak:
        (match salt with
        | Some salt -> Bgp.Route.tiebreak_rank ~salt (asn neighbor)
        | None -> 0)
  in
  let key (e : Bgp.Route.entry) =
    (e.local_pref, -e.path_len, -e.tiebreak, -Asn.to_int e.neighbor)
  in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])
    (QCheck.Test.make ~name:"decision best = maximum of its key" ~count:300
       QCheck.(
         pair (option (int_bound 1000))
           (list_of_size (Gen.int_range 0 8)
              (triple (int_range 1 12) (oneofl [ 100; 200; 300 ]) (int_range 1 3))))
       (fun (salt, candidates) ->
         let entries = List.map (entry salt) candidates in
         match (best_of entries, entries) with
         | None, [] -> true
         | Some best, _ :: _ ->
             List.for_all (fun e -> compare (key e) (key best) <= 0) entries
         | _ -> false))

let test_export_table () =
  (* Every (learned from, sent to) pair of relationships, for a learned
     and a locally originated route, plus no echo to the learning
     neighbor. *)
  let open Topology.Relationship in
  let self = asn 100 and learned_from_asn = asn 7 and other = asn 8 in
  let ann =
    Bgp.Route.announcement ~prefix:production ~path:(as_path [ asn 7; asn 9 ])
  in
  let learned rel =
    Bgp.Route.make_entry ~ann ~neighbor:learned_from_asn ~rel ~local_pref:(local_pref rel)
      ~tiebreak:0
  in
  let local =
    Bgp.Route.local_entry_of
      ~ann:(Bgp.Route.announcement ~prefix:production ~path:(as_path [ self ]))
      ~self
  in
  let allowed entry ~to_neighbor to_rel =
    Bgp.Policy.export_allowed ~entry ~to_neighbor ~to_rel
  in
  (* (learned from, sent to, exported) *)
  let table =
    [
      (Customer, Customer, true);
      (Customer, Peer, true);
      (Customer, Provider, true);
      (Peer, Customer, true);
      (Peer, Peer, false);
      (Peer, Provider, false);
      (Provider, Customer, true);
      (Provider, Peer, false);
      (Provider, Provider, false);
    ]
  in
  let to_string = function Customer -> "customer" | Provider -> "provider" | Peer -> "peer" in
  List.iter
    (fun (from_rel, to_rel, expected) ->
      let name = Printf.sprintf "%s-learned to %s" (to_string from_rel) (to_string to_rel) in
      Alcotest.(check bool) name expected (allowed (learned from_rel) ~to_neighbor:other to_rel);
      Alcotest.(check bool) (name ^ ": no echo") false
        (allowed (learned from_rel) ~to_neighbor:learned_from_asn to_rel))
    table;
  List.iter
    (fun to_rel ->
      Alcotest.(check bool) ("local to " ^ to_string to_rel) true
        (allowed local ~to_neighbor:other to_rel))
    [ Customer; Peer; Provider ];
  (* The exported announcement prepends [self] to a learned route and
     leaves a local one as originated. *)
  let exported entry =
    List.map Asn.to_int
      (Bgp.As_path.to_list (Bgp.Policy.export_ann ~self ~entry).Bgp.Route.path)
  in
  Alcotest.(check (list int)) "learned route prepends self" [ 100; 7; 9 ]
    (exported (learned Customer));
  Alcotest.(check (list int)) "local route as originated" [ 100 ] (exported local)

let test_isolation_with_silent_routers () =
  let w = fig2_world () in
  announce_all_infrastructure w;
  let plan = Lifeguard.Remediate.plan ~sentinel ~origin:o ~production () in
  Lifeguard.Remediate.announce_baseline w.net plan;
  converge w;
  let atlas = Measurement.Atlas.create () in
  Measurement.Atlas.refresh_all atlas w.probe ~vps:[ o ] ~dsts:[ e ] ~now:0.0;
  let responsiveness = Measurement.Responsiveness.create () in
  (* B's router has never answered a probe; its silence must not be
     mistaken for unreachability, and A must still get the blame. *)
  Measurement.Responsiveness.note responsiveness
    (Topology.As_graph.router_address w.graph b 0)
    false;
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
  Alcotest.(check bool) "reverse failure" true
    (diagnosis.Lifeguard.Isolation.direction = Lifeguard.Isolation.Reverse_failure);
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
    Alcotest.test_case "no route without a RIB entry" `Quick test_no_route_without_rib_entry;
    prop_decision_is_key_maximum;
    Alcotest.test_case "export table" `Quick test_export_table;
    Alcotest.test_case "isolation with silent routers" `Quick test_isolation_with_silent_routers;
    Alcotest.test_case "isolation blames the failed link's side" `Quick
      test_isolation_blames_link_far_side;
    Alcotest.test_case "orchestrator waits then poisons" `Quick test_orchestrator_wait_then_poison;
    Alcotest.test_case "orchestrator stands down on transients" `Quick
      test_orchestrator_gives_up_on_transient;
    Alcotest.test_case "convergence metrics on empty input" `Quick test_convergence_empty_inputs;
  ]
