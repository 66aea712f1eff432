(* Deeper BGP mechanics: MRAI pacing, convergence metrics, collectors,
   sessions, FIB install delay, path asymmetry. *)

open Net
open Helpers

let test_traversed_strips_origination_tail () =
  let path = Bgp.As_path.of_list (List.map asn [ 12; 13; 10; 30; 10 ]) in
  Alcotest.(check (list int)) "traversed" [ 12; 13 ]
    (List.map Asn.to_int (Bgp.As_path.to_list (Bgp.As_path.traversed ~origin:(asn 10) path)));
  Alcotest.(check bool) "does not traverse the poison" false
    (Bgp.As_path.traverses ~origin:(asn 10) ~target:(asn 30) path);
  Alcotest.(check bool) "traverses a real transit" true
    (Bgp.As_path.traverses ~origin:(asn 10) ~target:(asn 13) path)

let test_collector_records_changes () =
  let w = fig2_world () in
  let collector = Bgp.Network.Collector.attach w.net ~name:"rv" ~peers:[ e; d ] in
  Bgp.Network.announce w.net ~origin:o ~prefix:production ();
  converge w;
  let log = Bgp.Network.Collector.log collector in
  Alcotest.(check bool) "records exist" true (List.length log >= 2);
  List.iter
    (fun (r : Bgp.Network.update_record) ->
      Alcotest.(check bool) "only subscribed peers" true
        (Asn.equal r.Bgp.Network.speaker e || Asn.equal r.Bgp.Network.speaker d))
    log;
  (match Bgp.Network.Collector.current_route collector ~peer:e ~prefix:production with
  | Some entry ->
      check_path "collector sees E's final route" [ 30; 20; 10 ]
        (Bgp.As_path.to_list entry.Bgp.Route.ann.Bgp.Route.path)
  | None -> Alcotest.fail "collector lost E's route");
  Bgp.Network.Collector.clear collector;
  Alcotest.(check int) "clear empties the log" 0
    (List.length (Bgp.Network.Collector.log collector))

let test_convergence_metrics () =
  let w = fig2_world () in
  let collector = Bgp.Network.Collector.attach w.net ~name:"rv" ~peers:[ b; c; d; e; f ] in
  Bgp.Network.announce w.net ~origin:o ~prefix:production
    ~per_neighbor:(fun _ -> Some (Bgp.As_path.prepended ~origin:o ~copies:3))
    ();
  converge w;
  let t0 = Sim.Engine.now w.engine in
  Bgp.Network.Collector.clear collector;
  Bgp.Network.announce w.net ~origin:o ~prefix:production
    ~per_neighbor:(fun _ -> Some (Bgp.As_path.poisoned ~origin:o ~poison:a))
    ();
  converge w;
  let reports =
    Bgp.Convergence.analyze collector ~event_time:t0 ~prefix:production ~affected:(fun p ->
        Asn.equal p e || Asn.equal p f)
  in
  Alcotest.(check bool) "reports for updated peers" true (List.length reports >= 3);
  let for_peer p = List.find (fun r -> Asn.equal r.Bgp.Convergence.peer p) reports in
  let rb = for_peer b in
  Alcotest.(check bool) "B updates once: instant" true (rb.Bgp.Convergence.convergence_time = 0.0);
  Alcotest.(check bool) "B keeps a route" true rb.Bgp.Convergence.has_final_route;
  let rf = for_peer f in
  Alcotest.(check bool) "F (captive) loses its route" false rf.Bgp.Convergence.has_final_route;
  Alcotest.(check bool) "global convergence positive" true
    (match Bgp.Convergence.global_convergence_time reports with
    | Some g -> g >= 0.0
    | None -> false);
  Alcotest.(check bool) "fraction_instant sane" true
    (let f = Bgp.Convergence.fraction_instant reports in
     f >= 0.0 && f <= 1.0)

let test_mrai_coalesces () =
  (* Three quick re-announcements within one MRAI window: the far AS must
     see far fewer updates than announcements. *)
  let w = world_of_graph ~mrai:30.0 (fig2_graph ()) in
  let collector = Bgp.Network.Collector.attach w.net ~name:"rv" ~peers:[ d ] in
  Bgp.Network.announce w.net ~origin:o ~prefix:production ();
  converge w;
  Bgp.Network.Collector.clear collector;
  let reannounce copies =
    Bgp.Network.announce w.net ~origin:o ~prefix:production
      ~per_neighbor:(fun _ -> Some (Bgp.As_path.prepended ~origin:o ~copies))
      ()
  in
  reannounce 2;
  reannounce 3;
  reannounce 4;
  converge w;
  let updates_at_d =
    List.length
      (List.filter
         (fun (r : Bgp.Network.update_record) -> Asn.equal r.Bgp.Network.speaker d)
         (Bgp.Network.Collector.log collector))
  in
  Alcotest.(check bool)
    (Printf.sprintf "D saw %d < 3 updates" updates_at_d)
    true (updates_at_d < 3 && updates_at_d >= 1);
  (match Bgp.Network.best_route w.net d production with
  | Some entry ->
      Alcotest.(check int) "final state is the last announcement" 6
        (Bgp.As_path.length entry.Bgp.Route.ann.Bgp.Route.path)
  | None -> Alcotest.fail "D lost the route")

let test_session_down_up_readvertises () =
  let w = fig2_world () in
  Bgp.Network.announce w.net ~origin:o ~prefix:production ();
  converge w;
  Bgp.Network.fail_link w.net ~a:e ~b:a;
  converge w;
  check_path "E falls to D path while session down" [ 50; 40; 20; 10 ]
    (path_of_best (Bgp.Network.best_route w.net e production));
  Bgp.Network.restore_link w.net ~a:e ~b:a;
  converge w;
  check_path "E recovers the short path after session up" [ 30; 20; 10 ]
    (path_of_best (Bgp.Network.best_route w.net e production))

let test_fib_install_delay () =
  let engine = Sim.Engine.create () in
  let graph = fig2_graph () in
  let net = Bgp.Network.create ~engine ~graph ~mrai:5.0 ~fib_install_delay:10.0 () in
  Bgp.Network.announce net ~origin:o ~prefix:production ();
  Bgp.Network.run_until_quiet net;
  (* Control plane converged; data plane trails by up to 10 s. *)
  let target = Net.Prefix.nth_address production 1 in
  Alcotest.(check bool) "loc-RIB has the route" true
    (Bgp.Network.best_route net e production <> None);
  let before = Bgp.Network.fib_lookup net e target <> None in
  (* Drain the pending FIB install events. *)
  let wake = Sim.Engine.now engine +. 30.0 in
  Sim.Engine.schedule engine ~at:wake ignore;
  Sim.Engine.run ~until:wake engine;
  let after = Bgp.Network.fib_lookup net e target <> None in
  Alcotest.(check bool) "FIB eventually installed" true after;
  (* The interesting assertion: immediately after control-plane
     convergence the FIB may or may not have been committed yet, but it
     must never precede the loc-RIB. *)
  Alcotest.(check bool) "fib never ahead of rib" true (after || not before)

let test_pref_jitter_deterministic_and_bounded () =
  let config = { Bgp.Policy.default with Bgp.Policy.pref_jitter = 8 } in
  let self = asn 1 and neighbor = asn 2 in
  let p1 =
    Bgp.Policy.local_pref_for config ~self ~neighbor ~rel:Topology.Relationship.Customer
  in
  let p2 =
    Bgp.Policy.local_pref_for config ~self ~neighbor ~rel:Topology.Relationship.Customer
  in
  Alcotest.(check int) "deterministic" p1 p2;
  Alcotest.(check bool) "within class band" true (p1 >= 300 && p1 <= 308);
  let provider_pref =
    Bgp.Policy.local_pref_for config ~self ~neighbor ~rel:Topology.Relationship.Provider
  in
  Alcotest.(check bool) "classes stay separated" true (provider_pref < p1)

let test_peer_route_not_exported_to_peer () =
  (* Classic valley-free: a route learned from one peer must not be
     announced to another peer. *)
  let g = Topology.As_graph.create () in
  let open Topology in
  List.iter (fun n -> As_graph.add_as g (asn n)) [ 1; 2; 3 ];
  As_graph.add_link g ~a:(asn 1) ~b:(asn 2) ~rel:Relationship.Peer;
  As_graph.add_link g ~a:(asn 2) ~b:(asn 3) ~rel:Relationship.Peer;
  let w = world_of_graph g in
  Bgp.Network.announce w.net ~origin:(asn 1) ~prefix:production ();
  converge w;
  Alcotest.(check bool) "peer 2 has the route" true
    (Bgp.Network.best_route w.net (asn 2) production <> None);
  Alcotest.(check bool) "peer-of-peer 3 does not" true
    (Bgp.Network.best_route w.net (asn 3) production = None)

let test_message_accounting () =
  let w = fig2_world () in
  let before = Bgp.Network.message_count w.net in
  Bgp.Network.announce w.net ~origin:o ~prefix:production ();
  converge w;
  let after = Bgp.Network.message_count w.net in
  Alcotest.(check bool) "messages flowed" true (after > before)

let test_selective_advertising () =
  (* Announcing via only one provider: the withheld provider must not
     even have the route in its RIB from the origin (though it may learn
     it transitively). *)
  let g = Topology.As_graph.create () in
  let open Topology in
  List.iter (fun n -> As_graph.add_as g (asn n)) [ 1; 2; 3 ];
  As_graph.add_link g ~a:(asn 1) ~b:(asn 2) ~rel:Relationship.Provider;
  As_graph.add_link g ~a:(asn 1) ~b:(asn 3) ~rel:Relationship.Provider;
  let w = world_of_graph g in
  Bgp.Network.announce w.net ~origin:(asn 1) ~prefix:production
    ~per_neighbor:(fun n ->
      if Asn.equal n (asn 2) then Some (Bgp.As_path.plain ~origin:(asn 1)) else None)
    ();
  converge w;
  Alcotest.(check bool) "advertised provider has it" true
    (Bgp.Network.best_route w.net (asn 2) production <> None);
  Alcotest.(check bool) "withheld provider does not" true
    (Bgp.Network.best_route w.net (asn 3) production = None)

let prop_poisoned_path_ties_baseline_length =
  QCheck.Test.make ~name:"poisoned and 3-prepended paths tie in length" ~count:100
    QCheck.(pair (int_range 1 60000) (int_range 1 60000))
    (fun (o', a') ->
      QCheck.assume (o' <> a');
      Bgp.As_path.length (Bgp.As_path.poisoned ~origin:(asn o') ~poison:(asn a'))
      = Bgp.As_path.length (Bgp.As_path.prepended ~origin:(asn o') ~copies:3))

let prop_decision_total_order =
  (* best of a list never depends on list order. *)
  let entry_gen =
    QCheck.map
      (fun (neighbor, rel_ix, len) ->
        let rel =
          match rel_ix mod 3 with
          | 0 -> Topology.Relationship.Customer
          | 1 -> Topology.Relationship.Peer
          | _ -> Topology.Relationship.Provider
        in
        Bgp.Route.make_entry ~salt:7
          ~ann:
            (Bgp.Route.announcement ~prefix:production
               ~path:(Bgp.As_path.of_list (List.init (1 + len) (fun i -> asn (500 + i)))))
          ~neighbor:(asn (1 + neighbor))
          ~rel
          ~local_pref:(Topology.Relationship.local_pref rel)
          ~learned_at:0.0 ())
      QCheck.(triple (int_range 0 50) (int_range 0 2) (int_range 0 5))
  in
  QCheck.Test.make ~name:"decision independent of candidate order" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 8) entry_gen)
    (fun entries ->
      let best1 = Bgp.Decision.best entries in
      let best2 = Bgp.Decision.best (List.rev entries) in
      match (best1, best2) with
      | Some x, Some y ->
          Asn.equal x.Bgp.Route.neighbor y.Bgp.Route.neighbor
          && Bgp.As_path.equal x.Bgp.Route.ann.Bgp.Route.path y.Bgp.Route.ann.Bgp.Route.path
      | None, None -> true
      | _ -> false)

let suite =
  [
    Alcotest.test_case "traversed strips origination tail" `Quick
      test_traversed_strips_origination_tail;
    Alcotest.test_case "collector records" `Quick test_collector_records_changes;
    Alcotest.test_case "convergence metrics" `Quick test_convergence_metrics;
    Alcotest.test_case "MRAI coalesces bursts" `Quick test_mrai_coalesces;
    Alcotest.test_case "session down/up" `Quick test_session_down_up_readvertises;
    Alcotest.test_case "FIB install delay" `Quick test_fib_install_delay;
    Alcotest.test_case "pref jitter bounded" `Quick test_pref_jitter_deterministic_and_bounded;
    Alcotest.test_case "peer route not re-peered" `Quick test_peer_route_not_exported_to_peer;
    Alcotest.test_case "message accounting" `Quick test_message_accounting;
    Alcotest.test_case "selective advertising" `Quick test_selective_advertising;
    QCheck_alcotest.to_alcotest prop_poisoned_path_ties_baseline_length;
    QCheck_alcotest.to_alcotest prop_decision_total_order;
  ]

(* Route-flap damping at the speaker level. *)
let damped_config =
  { Bgp.Policy.default with Bgp.Policy.damping = Some Bgp.Policy.default_damping }

let test_flap_damping_suppresses_and_reuses () =
  let open Topology in
  let speaker =
    Bgp.Speaker.create ~asn:(asn 100) ~config:damped_config
      ~neighbors:[ (asn 200, Relationship.Provider); (asn 201, Relationship.Provider) ]
      ()
  in
  let scheduled = ref [] in
  Bgp.Speaker.set_reuse_scheduler speaker (fun ~delay prefix ->
      scheduled := (delay, prefix) :: !scheduled);
  let announce ~now path =
    ignore
      (Bgp.Speaker.receive speaker ~now ~from:(asn 200)
         (Bgp.Speaker.Announce
            (Bgp.Route.announcement ~prefix:production ~path:(Bgp.As_path.of_list path))))
  in
  (* Also a stable candidate from the other neighbor. *)
  ignore
    (Bgp.Speaker.receive speaker ~now:0.0 ~from:(asn 201)
       (Bgp.Speaker.Announce
          (Bgp.Route.announcement ~prefix:production
             ~path:(Bgp.As_path.of_list [ asn 201; asn 900; asn 901 ]))));
  announce ~now:1.0 [ asn 200; asn 901; asn 900 ];
  (* Three changed announcements in quick succession: ~3000 penalty,
     over the 2000 suppression threshold (two would decay to ~1990);
     the final state is the short two-hop path. *)
  announce ~now:10.0 [ asn 200; asn 900 ];
  announce ~now:20.0 [ asn 200; asn 902; asn 900 ];
  announce ~now:30.0 [ asn 200; asn 900 ];
  Alcotest.(check (list int)) "neighbor 200 suppressed" [ 200 ]
    (List.map Asn.to_int (Bgp.Speaker.suppressed_candidates speaker production));
  (match Bgp.Speaker.best speaker production with
  | Some e ->
      Alcotest.(check int) "falls back to the stable (longer) route" 201
        (Asn.to_int e.Bgp.Route.neighbor)
  | None -> Alcotest.fail "no route at all");
  Alcotest.(check bool) "reuse timer requested" true (!scheduled <> []);
  (* After the penalty half-lives away, the better route is usable
     again. *)
  let out = Bgp.Speaker.reevaluate speaker ~now:4000.0 production in
  ignore out;
  match Bgp.Speaker.best speaker production with
  | Some e ->
      Alcotest.(check int) "shorter route restored after decay" 200
        (Asn.to_int e.Bgp.Route.neighbor)
  | None -> Alcotest.fail "route lost after reuse"

let test_no_damping_without_config () =
  let open Topology in
  let speaker =
    Bgp.Speaker.create ~asn:(asn 100) ~config:Bgp.Policy.default
      ~neighbors:[ (asn 200, Relationship.Provider) ]
      ()
  in
  for i = 1 to 10 do
    ignore
      (Bgp.Speaker.receive speaker ~now:(float_of_int i) ~from:(asn 200)
         (Bgp.Speaker.Announce
            (Bgp.Route.announcement ~prefix:production
               ~path:(Bgp.As_path.of_list [ asn 200; asn (900 + (i mod 2)) ]))))
  done;
  Alcotest.(check (list int)) "nothing suppressed without damping" []
    (List.map Asn.to_int (Bgp.Speaker.suppressed_candidates speaker production));
  Alcotest.(check bool) "route intact" true (Bgp.Speaker.best speaker production <> None)

(* Regression for the session_up fast path (Fig. 2 world): a poison
   re-announced by the watchdog and a session restore landing at the same
   simulated instant must converge to the same routes in either order.
   With no damping state session_up exports the current loc-RIB toward
   only the revived neighbor; the audit showed that path equivalent to
   the full per-prefix refresh, including when the loc-RIB it exports
   already holds a poison applied moments earlier in the same window —
   this pins that equivalence, for the fast path and (with flap history
   forcing {!Bgp.Speaker.damping_pending}) the slow path. *)
let session_up_poison_run ~damping ~poison_first =
  let config_of _ =
    if damping then
      { Bgp.Policy.default with Bgp.Policy.damping = Some Bgp.Policy.default_damping }
    else Bgp.Policy.default
  in
  let w = world_of_graph ~config_of (fig2_graph ()) in
  Bgp.Network.announce w.net ~origin:o ~prefix:production ();
  converge w;
  if damping then begin
    (* One clean route flap first — withdraw and re-announce, which lands
       at E as real Withdraw/Announce updates — so damping records exist
       (slow path) without suppressing anything yet. *)
    Bgp.Network.withdraw w.net ~origin:o ~prefix:production;
    converge w;
    Bgp.Network.announce w.net ~origin:o ~prefix:production ();
    converge w
  end;
  Bgp.Network.fail_link w.net ~a:e ~b:a;
  converge w;
  let poison () =
    Bgp.Network.announce w.net ~origin:o ~prefix:production
      ~per_neighbor:(fun _ -> Some (Bgp.As_path.poisoned ~origin:o ~poison:a))
      ()
  in
  let restore () = Bgp.Network.restore_link w.net ~a:e ~b:a in
  if poison_first then begin
    poison ();
    restore ()
  end
  else begin
    restore ();
    poison ()
  end;
  if damping then
    Alcotest.(check bool)
      "flap history forces the session_up slow path" true
      (Bgp.Speaker.damping_pending (Bgp.Network.speaker w.net e));
  converge w;
  List.map
    (fun n ->
      ( Asn.to_int n,
        List.map Asn.to_int (path_of_best (Bgp.Network.best_route w.net n production)) ))
    [ o; b; a; c; d; e; f ]

let test_session_up_poison_same_window () =
  let fast1 = session_up_poison_run ~damping:false ~poison_first:true in
  let fast2 = session_up_poison_run ~damping:false ~poison_first:false in
  Alcotest.(check (list (pair int (list int))))
    "fast path: poison/restore order is immaterial" fast1 fast2;
  (* The poison survives the same-window session_up: E stays on the D
     chain (A's route is loop-rejected), and F — captive behind A — has
     nothing. *)
  Alcotest.(check (list int))
    "E on the alternate chain, carrying the poison tail" [ 50; 40; 20; 10; 30; 10 ]
    (List.assoc 60 fast1);
  Alcotest.(check (list int)) "F is captive" [] (List.assoc 70 fast1);
  let slow1 = session_up_poison_run ~damping:true ~poison_first:true in
  let slow2 = session_up_poison_run ~damping:true ~poison_first:false in
  Alcotest.(check (list (pair int (list int))))
    "slow path: poison/restore order is immaterial" slow1 slow2

(* The allocation of the BGP update path, pinned: minor words per
   delivered update over five poisons of a converged 100-AS world (about
   a thousand deliveries, at about 106 words each). The
   words are what the update path allocates (receive, decision, FIB,
   export, MRAI and the engine event), so a regression that brings back
   per-update garbage fails here before any benchmark sees it. *)
let test_words_per_update () =
  let module Sc = Workloads.Scenarios in
  let m = Sc.bgpmux ~ases:100 ~infrastructure:Sc.No_infrastructure ~seed:42 () in
  let net = m.Sc.bed.Sc.net in
  Lifeguard.Remediate.announce_baseline net m.Sc.plan;
  Bgp.Network.run_until_quiet net;
  let targets = Array.of_list (Sc.harvest_on_path_ases m) in
  Alcotest.(check bool) "poison targets" true (Array.length targets > 0);
  let before = Bgp.Network.message_count net in
  let w0 = Gc.minor_words () in
  for i = 0 to 4 do
    Lifeguard.Remediate.poison net m.Sc.plan ~target:targets.(i mod Array.length targets);
    Bgp.Network.run_until_quiet net
  done;
  let words = Gc.minor_words () -. w0 in
  let delivered = Bgp.Network.message_count net - before in
  let per_update = words /. float_of_int delivered in
  Alcotest.(check bool) "poisons deliver updates" true (delivered > 500);
  if per_update >= 150.0 then
    Alcotest.failf "%.1f minor words per delivered update (%d updates), want < 150" per_update
      delivered

let suite =
  suite
  @ [
      Alcotest.test_case "flap damping suppresses and reuses" `Quick
        test_flap_damping_suppresses_and_reuses;
      Alcotest.test_case "no damping unless configured" `Quick test_no_damping_without_config;
      Alcotest.test_case "session_up vs same-window poison (fig2)" `Quick
        test_session_up_poison_same_window;
      Alcotest.test_case "words per delivered update < 150" `Quick test_words_per_update;
    ]
