(* Deeper BGP mechanics: MRAI pacing, convergence metrics, collectors,
   sessions, FIB install delay, path asymmetry. *)

open Net
open Helpers

let test_traversed_strips_origination_tail () =
  let path = as_path (List.map asn [ 12; 13; 10; 30; 10 ]) in
  Alcotest.(check bool) "traverses the first hop" true
    (Bgp.As_path.traverses ~origin:(asn 10) ~target:(asn 12) path);
  Alcotest.(check bool) "does not traverse the origin" false
    (Bgp.As_path.traverses ~origin:(asn 10) ~target:(asn 10) path);
  Alcotest.(check bool) "does not traverse the poison" false
    (Bgp.As_path.traverses ~origin:(asn 10) ~target:(asn 30) path);
  Alcotest.(check bool) "traverses a real transit" true
    (Bgp.As_path.traverses ~origin:(asn 10) ~target:(asn 13) path)

let test_collector_records_changes () =
  let w = fig2_world () in
  let collector = Bgp.Network.Collector.attach w.net ~peers:[ e; d ] in
  Bgp.Network.Collector.clear collector (* start the log *);
  Bgp.Network.announce w.net ~origin:o ~prefix:production ();
  converge w;
  let log = Bgp.Network.Collector.since collector neg_infinity in
  Alcotest.(check bool) "records exist" true (List.length log >= 2);
  List.iter
    (fun (r : Bgp.Network.update_record) ->
      Alcotest.(check bool) "only subscribed peers" true
        (Asn.equal r.Bgp.Network.speaker e || Asn.equal r.Bgp.Network.speaker d))
    log;
  (match Bgp.Network.Collector.route_view collector ~peer:e ~prefix:production with
  | Some (Some entry) ->
      check_path "collector sees E's final route" [ 30; 20; 10 ]
        (Bgp.As_path.to_list entry.Bgp.Route.ann.Bgp.Route.path)
  | Some None | None -> Alcotest.fail "collector lost E's route");
  Bgp.Network.Collector.clear collector;
  Alcotest.(check int) "clear empties the log" 0
    (List.length (Bgp.Network.Collector.since collector neg_infinity))

let test_convergence_metrics () =
  let w = fig2_world () in
  let collector = Bgp.Network.Collector.attach w.net ~peers:[ b; c; d; e; f ] in
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
  let collector = Bgp.Network.Collector.attach w.net ~peers:[ d ] in
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
         (Bgp.Network.Collector.since collector neg_infinity))
  in
  Alcotest.(check bool)
    (Printf.sprintf "D saw %d < 3 updates" updates_at_d)
    true (updates_at_d < 3 && updates_at_d >= 1);
  (match Bgp.Network.best_route w.net d production with
  | Some entry ->
      Alcotest.(check int) "final state is the last announcement" 6
        (Bgp.As_path.length entry.Bgp.Route.ann.Bgp.Route.path)
  | None -> Alcotest.fail "D lost the route")

(* Updates that wait for the MRAI timer go out as one batch in
   [Prefix.compare] order, whatever order they were made in, with one
   update per prefix. The first announcement starts the timer; the
   batch prefixes are announced in descending order and one of them
   again with a prepended path, and O's neighbor records them in the
   order they arrive. *)
let test_mrai_batch_in_prefix_order () =
  let w = world_of_graph ~mrai:30.0 (fig2_graph ()) in
  let n, _ = List.hd (Topology.As_graph.neighbors w.graph o) in
  let collector = Bgp.Network.Collector.attach w.net ~peers:[ n ] in
  Bgp.Network.Collector.clear collector (* start the log *);
  let announce p = Bgp.Network.announce w.net ~origin:o ~prefix:p () in
  announce (prefix "198.51.100.0/24");
  let batch = List.map prefix [ "192.0.2.0/24"; "192.0.2.0/25"; "10.9.0.0/16"; "10.1.0.0/16" ] in
  List.iter announce batch;
  let again = List.hd batch in
  Bgp.Network.announce w.net ~origin:o ~prefix:again
    ~per_neighbor:(fun _ -> Some (Bgp.As_path.prepended ~origin:o ~copies:3))
    ();
  converge w;
  (match Bgp.Network.best_route w.net n again with
  | Some entry ->
      Alcotest.(check int) "the re-announcement replaced the pending one" 3
        (Bgp.As_path.length entry.Bgp.Route.ann.Bgp.Route.path)
  | None -> Alcotest.fail "no route for the re-announced prefix");
  let arrived =
    List.filter_map
      (fun (r : Bgp.Network.update_record) ->
        if List.exists (Prefix.equal r.Bgp.Network.prefix) batch then
          Some (Prefix.to_string r.Bgp.Network.prefix)
        else None)
      (Bgp.Network.Collector.since collector neg_infinity)
  in
  Alcotest.(check (list string)) "batch arrives in prefix order"
    (List.map Prefix.to_string (List.sort Prefix.compare batch))
    arrived

(* A flushed MRAI batch crosses its link as one engine event: on a
   two-AS world, the flush's next dispatch delivers all of it, at one
   timestamp and in prefix order, and leaves nothing queued. *)
let test_mrai_batch_one_event () =
  let g = Topology.As_graph.create () in
  List.iter (fun n -> Topology.As_graph.add_as g (asn n)) [ 1; 2 ];
  Topology.As_graph.add_link g ~a:(asn 1) ~b:(asn 2) ~rel:Topology.Relationship.Provider;
  let w = world_of_graph ~mrai:30.0 g in
  let collector = Bgp.Network.Collector.attach w.net ~peers:[ asn 2 ] in
  let announce p = Bgp.Network.announce w.net ~origin:(asn 1) ~prefix:p () in
  (* The first update goes out at once and starts the MRAI window; the
     rest wait for the timer. *)
  announce (prefix "198.51.100.0/24");
  let batch = List.map prefix [ "192.0.2.0/24"; "10.9.0.0/16"; "192.0.2.0/25"; "10.1.0.0/16" ] in
  List.iter announce batch;
  Alcotest.(check int) "first update and MRAI timer queued" 2 (Sim.Engine.pending w.engine);
  Alcotest.(check bool) "first update delivered" true (Sim.Engine.step w.engine);
  Bgp.Network.Collector.clear collector;
  Alcotest.(check bool) "timer fires" true (Sim.Engine.step w.engine);
  Alcotest.(check int) "the flush queued one event" 1 (Sim.Engine.pending w.engine);
  let delivered = Bgp.Network.message_count w.net in
  Alcotest.(check bool) "batch dispatched" true (Sim.Engine.step w.engine);
  Alcotest.(check int) "one dispatch delivered the whole batch" (List.length batch)
    (Bgp.Network.message_count w.net - delivered);
  Alcotest.(check int) "nothing left queued" 0 (Sim.Engine.pending w.engine);
  let log = Bgp.Network.Collector.since collector neg_infinity in
  Alcotest.(check (list string)) "in prefix order"
    (List.map Prefix.to_string (List.sort Prefix.compare batch))
    (List.map (fun (r : Bgp.Network.update_record) -> Prefix.to_string r.Bgp.Network.prefix) log);
  Alcotest.(check (list (float 0.0))) "at one timestamp"
    (List.map (fun _ -> Sim.Engine.now w.engine) batch)
    (List.map (fun (r : Bgp.Network.update_record) -> r.Bgp.Network.time) log)

(* Exactness oracle for delivery order: a digest of the full
   [bgp.deliver] trace (time, sender, receiver, prefix, kind) of a seeded
   60-AS world under lost and duplicated updates and session flaps. The
   pinned digest was taken while every update was still its own engine
   event, so a batch delivered out of order, or a duplicate copy sent at
   the wrong delay, fails here. *)
let test_deliver_trace_digest () =
  let g = (Topology.Topo_gen.generate ~params:(Topology.Topo_gen.sized 60) ~seed:42 ()).graph in
  let w = world_of_graph ~mrai:30.0 g in
  let faults =
    Bgp.Faults.create
      ~config:
        {
          Bgp.Faults.none with
          session_flap_mtbf = 60000.0;
          session_flap_downtime = 30.0;
          update_loss = 0.05;
          update_dup = 0.05;
        }
      ~rng:(Prng.create ~seed:7) ~net:w.net ()
  in
  let buf = Buffer.create (1 lsl 20) in
  Obs.Trace.enable_buffer buf;
  Fun.protect ~finally:Obs.Trace.close (fun () ->
      Bgp.Faults.start faults ~until:3600.0 ();
      List.iteri
        (fun i origin ->
          if i mod 20 = 0 then
            for k = 0 to 2 do
              Bgp.Network.announce w.net ~origin
                ~prefix:(prefix (Printf.sprintf "10.%d.%d.0/24" i k))
                ()
            done)
        (Topology.As_graph.as_list g);
      Sim.Engine.run ~until:3600.0 w.engine;
      converge w);
  (* Each line is {"ts":T,"domain":D,"span":"bgp.deliver","kv":{...}};
     the digest reads the time and the payload, not the recording domain. *)
  let marker = "\"span\":\"bgp.deliver\",\"kv\":" in
  let rec find line i =
    if i + String.length marker > String.length line then None
    else if String.sub line i (String.length marker) = marker then Some (i + String.length marker)
    else find line (i + 1)
  in
  let digest = Buffer.create (1 lsl 20) in
  let n = ref 0 in
  List.iter
    (fun line ->
      match find line 0 with
      | Some kv ->
          incr n;
          Buffer.add_string digest (String.sub line 0 (String.index line ','));
          Buffer.add_string digest (String.sub line kv (String.length line - kv));
          Buffer.add_char digest '\n'
      | None -> ())
    (String.split_on_char '\n' (Buffer.contents buf));
  Alcotest.(check bool) "sessions flapped" true (Bgp.Faults.session_flap_count faults > 0);
  Alcotest.(check bool) "updates lost" true (Bgp.Faults.updates_dropped faults > 0);
  Alcotest.(check bool) "updates duplicated" true (Bgp.Faults.updates_duplicated faults > 0);
  Alcotest.(check int) "deliveries traced" 1293 !n;
  Alcotest.(check string) "bgp.deliver trace digest" "d64a1012bbf3b30ed560bf5427e16cc0"
    (Digest.to_hex (Digest.string (Buffer.contents digest)))

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
        Bgp.Route.make_entry
          ~ann:
            (Bgp.Route.announcement ~prefix:production
               ~path:(as_path (List.init (1 + len) (fun i -> asn (500 + i)))))
          ~neighbor:(asn (1 + neighbor))
          ~rel
          ~local_pref:(Topology.Relationship.local_pref rel)
          ~tiebreak:(Bgp.Route.tiebreak_rank ~salt:7 (asn (1 + neighbor))))
      QCheck.(triple (int_range 0 50) (int_range 0 2) (int_range 0 5))
  in
  QCheck.Test.make ~name:"decision independent of candidate order" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 8) entry_gen)
    (fun entries ->
      let best1 = best_of entries in
      let best2 = best_of (List.rev entries) in
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
    Alcotest.test_case "MRAI batch in prefix order" `Quick test_mrai_batch_in_prefix_order;
    Alcotest.test_case "MRAI batch is one engine event" `Quick test_mrai_batch_one_event;
    Alcotest.test_case "deliver trace digest under faults" `Quick test_deliver_trace_digest;
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
    standalone_speaker ~asn:(asn 100) ~config:damped_config
      ~neighbors:[ (asn 200, Relationship.Provider); (asn 201, Relationship.Provider) ]
      ()
  in
  let scheduled = ref [] in
  Bgp.Speaker.set_reuse_scheduler speaker (fun ~delay prefix ->
      scheduled := (delay, prefix) :: !scheduled);
  let announce ~now path =
    ignore
      (Bgp.Speaker.receive speaker ~now ~session:(session_ix speaker (asn 200))
         (Bgp.Speaker.Announce
            (Bgp.Route.announcement ~prefix:production ~path:(as_path path))))
  in
  (* Also a stable candidate from the other neighbor. *)
  ignore
    (Bgp.Speaker.receive speaker ~now:0.0 ~session:(session_ix speaker (asn 201))
       (Bgp.Speaker.Announce
          (Bgp.Route.announcement ~prefix:production
             ~path:(as_path [ asn 201; asn 900; asn 901 ]))));
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
    standalone_speaker ~asn:(asn 100) ~config:Bgp.Policy.default
      ~neighbors:[ (asn 200, Relationship.Provider) ]
      ()
  in
  for i = 1 to 10 do
    ignore
      (Bgp.Speaker.receive speaker ~now:(float_of_int i) ~session:(session_ix speaker (asn 200))
         (Bgp.Speaker.Announce
            (Bgp.Route.announcement ~prefix:production
               ~path:(as_path [ asn 200; asn (900 + (i mod 2)) ]))))
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
   live, so that damping records exist) the slow path. *)
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
   delivered update over five poisons of a converged 100-AS world (986
   deliveries, at 41.4 words each; the bound leaves 5% headroom). The words are what the update path allocates (receive,
   decision, FIB, export, MRAI and the engine event), so a regression
   that brings back per-update garbage fails here before any benchmark
   sees it. *)
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
  if per_update >= 43.4 then
    Alcotest.failf "%.1f minor words per delivered update (%d updates), want < 43.4" per_update
      delivered

(* History independence: a world that is poisoned and restored keeps
   only its routes, so its size does not depend on what it went through.
   One poison/restore cycle per harvested target of a converged 100-AS
   world; after each cycle and a compaction the network must be exactly
   as large as after the first. A per-world table that keeps every path
   or announcement it ever saw grows with every cycle instead. *)
let test_history_independent_size () =
  let module Sc = Workloads.Scenarios in
  let m = Sc.bgpmux ~ases:100 ~infrastructure:Sc.No_infrastructure ~seed:42 () in
  let net = m.Sc.bed.Sc.net in
  Lifeguard.Remediate.announce_baseline net m.Sc.plan;
  Bgp.Network.run_until_quiet net;
  let cycle target =
    Lifeguard.Remediate.poison net m.Sc.plan ~target;
    Bgp.Network.run_until_quiet net;
    Lifeguard.Remediate.unpoison net m.Sc.plan;
    Bgp.Network.run_until_quiet net;
    Gc.compact ();
    Obj.reachable_words (Obj.repr net)
  in
  match Sc.harvest_on_path_ases m with
  | [] | [ _ ] -> Alcotest.fail "expected several poison targets"
  | first :: rest ->
      let size = cycle first in
      List.iteri
        (fun i target ->
          let now = cycle target in
          if now <> size then
            Alcotest.failf "after cycle %d (poison %s) the world is %d words, after the first %d"
              (i + 2) (Asn.to_string target) now size)
        rest

(* A world copied with Marshal ([Template.fork]) must tell empty
   adj-RIB-in cells and vacant slots apart from routes as the original
   does: a marker recognised by [==] against a module-level value would
   stop matching in the copy. A damped world with three prefixes (so
   every speaker that holds them has a vacant slot) is captured; then the
   original and its fork both withdraw a prefix and lose a session, and
   a data-plane walk from every AS to each prefix must agree. *)
let test_fork_empty_cells () =
  let open Topology in
  let topo = Topo_gen.generate ~params:(Topo_gen.sized 40) ~seed:5 () in
  let graph = topo.Topo_gen.graph in
  let config_of _ = { Bgp.Policy.default with Bgp.Policy.damping = Some Bgp.Policy.default_damping } in
  let net = Bgp.Network.create ~engine:(Sim.Engine.create ()) ~graph ~config_of ~mrai:5.0 () in
  let origin = List.hd topo.Topo_gen.stub_list in
  let prefixes = [ production; sentinel; prefix "198.51.100.0/24" ] in
  List.iter (fun p -> Bgp.Network.announce net ~origin ~prefix:p ()) prefixes;
  Bgp.Network.run_until_quiet net;
  let fork = Workloads.Template.fork (Workloads.Template.capture net) in
  let walks net =
    let failures = Dataplane.Failure.create () in
    List.concat_map
      (fun p ->
        let dst = Prefix.nth_address p 1 in
        List.map
          (fun src ->
            let w = Dataplane.Forward.walk net failures ~src ~dst in
            Printf.sprintf "%s to %s: %s %s" (Asn.to_string src) (Prefix.to_string p)
              (String.concat " " (List.map Asn.to_string (Dataplane.Forward.as_path_of_walk w)))
              (match w.Dataplane.Forward.outcome with
              | Dataplane.Forward.Delivered -> "delivered"
              | Dataplane.Forward.No_route a -> "no route at " ^ Asn.to_string a
              | Dataplane.Forward.Loop -> "loop"
              | Dataplane.Forward.Dropped _ -> "dropped"))
          (As_graph.as_list graph))
      prefixes
  in
  let step what f =
    List.iter
      (fun net ->
        f net;
        Bgp.Network.run_until_quiet net)
      [ net; fork ];
    Alcotest.(check (list string)) what (walks net) (walks fork)
  in
  step "walks after a withdrawal" (fun net ->
      Bgp.Network.withdraw net ~origin ~prefix:(List.nth prefixes 2));
  step "walks after a session goes down" (fun net ->
      Bgp.Network.fail_link net ~a:origin ~b:(fst (List.hd (As_graph.neighbors graph origin))))

(* Model-based check of the speaker's per-prefix state. Random sequences
   of receive (announce/withdraw), originate/stop_originating,
   session_down/session_up, refresh_prefix and reevaluate run against a
   speaker and against a reference model made of association lists. The
   model re-runs the decision process (and, with damping on, the
   RFC 2439 penalty book-keeping) wherever the speaker is specified to,
   and applies every update the speaker emits to its own adj-RIB-out.
   After each step the loc-RIB best of every prefix, [prefixes],
   [originated] and the adj-RIB-out (= the desired exports) must agree,
   and re-sending an unchanged announcement must emit nothing. Prefixes
   enter the sequence one after another, and half the runs start from a
   store that already holds other prefixes, so the speaker grows its
   per-prefix storage mid-sequence and to sparse ids. *)
module Speaker_model = struct
  open Topology

  type op =
    | Ann of int * int * int list  (** neighbor, prefix, path after the neighbor *)
    | Wd of int * int  (** neighbor, prefix *)
    | Orig of int * int * int  (** prefix, variant, neighbor it singles out *)
    | Stop of int
    | Down of int
    | Up of int
    | Refresh of int
    | Reeval of int

  let self = asn 100
  let poison = asn 300

  let neighbors =
    [|
      (asn 200, Relationship.Customer);
      (asn 201, Relationship.Peer);
      (asn 202, Relationship.Provider);
      (asn 203, Relationship.Customer);
    |]

  let pool =
    Array.map prefix
      [| "10.0.0.0/16"; "10.1.0.0/16"; "10.0.0.0/8"; "10.0.1.0/24"; "192.0.2.0/24"; "10.1.2.0/24" |]

  (* Step [i] may name only the first [1 + i / 4] prefixes of the pool. *)
  let prefix_at i j = pool.(j mod min (Array.length pool) (1 + (i / 4)))

  let per_neighbor variant k n =
    let single = Asn.equal n (fst neighbors.(k)) in
    match variant with
    | 0 -> Some (Bgp.As_path.plain ~origin:self)
    | 1 -> Some (Bgp.As_path.poisoned ~origin:self ~poison)
    | 2 -> if single then None else Some (Bgp.As_path.plain ~origin:self)
    | _ ->
        if single then Some (Bgp.As_path.prepended ~origin:self ~copies:3)
        else Some (Bgp.As_path.plain ~origin:self)

  let damping =
    {
      Bgp.Policy.penalty_per_flap = 1000.0;
      suppress_threshold = 1500.0;
      reuse_threshold = 800.0;
      half_life = 600.0;
    }

  type damp = { mutable penalty : float; mutable last : float; mutable suppressed : bool }

  (* The reference. Keys are prefixes and neighbor indices. *)
  type model = {
    config : Bgp.Policy.config;
    mutable ins : ((Prefix.t * int) * Bgp.Route.entry) list;
    mutable locals : (Prefix.t * (int * int)) list;
    mutable best : (Prefix.t * Bgp.Route.entry) list;
    mutable outs : ((Prefix.t * int) * Bgp.As_path.t) list;
    mutable down : int list;
    mutable damp : ((Prefix.t * int) * damp) list;
  }

  let remove key l = List.filter (fun (k, _) -> k <> key) l
  let set key v l = (key, v) :: remove key l

  let decayed d ~now =
    let dt = now -. d.last in
    if dt <= 0.0 then d.penalty else d.penalty *. (0.5 ** (dt /. damping.half_life))

  let note_flap m ~now key =
    if m.config.Bgp.Policy.damping <> None then begin
      let d =
        match List.assoc_opt key m.damp with
        | Some d -> d
        | None ->
            let d = { penalty = 0.0; last = now; suppressed = false } in
            m.damp <- (key, d) :: m.damp;
            d
      in
      d.penalty <- decayed d ~now +. damping.penalty_per_flap;
      d.last <- now;
      if d.penalty >= damping.suppress_threshold then d.suppressed <- true
    end

  let suppressed m ~now key =
    match List.assoc_opt key m.damp with
    | Some d when d.suppressed ->
        let p = decayed d ~now in
        if p < damping.reuse_threshold then begin
          d.penalty <- p;
          d.last <- now;
          d.suppressed <- false;
          false
        end
        else true
    | Some _ | None -> false

  let refresh m ~now p =
    let best =
      match List.assoc_opt p m.locals with
      | Some _ ->
          let ann = Bgp.Route.announcement ~prefix:p ~path:(Bgp.As_path.plain ~origin:self) in
          Some (Bgp.Route.local_entry_of ~ann ~self)
      | None ->
          List.filter_map
            (fun ((q, k), e) ->
              if Prefix.equal q p && not (suppressed m ~now (q, k)) then Some e else None)
            m.ins
          |> best_of
    in
    m.best <- (match best with Some e -> set p e m.best | None -> remove p m.best)

  let desired m p k =
    let n, rel = neighbors.(k) in
    if List.mem k m.down then None
    else
      match (List.assoc_opt p m.locals, List.assoc_opt p m.best) with
      | Some (variant, single), _ -> per_neighbor variant single n
      | None, Some entry when Bgp.Policy.export_allowed ~entry ~to_neighbor:n ~to_rel:rel ->
          Some (Bgp.Policy.export_ann ~self ~entry).Bgp.Route.path
      | None, _ -> None

  (* Apply what the speaker sent to the model's adj-RIB-out. [neighbors]
     is in ascending ASN order, so a session index is a neighbor index. *)
  let sent m updates =
    List.iter
      (fun (k, action) ->
        match action with
        | Bgp.Speaker.Announce ann ->
            m.outs <- set (ann.Bgp.Route.prefix, k) ann.Bgp.Route.path m.outs
        | Bgp.Speaker.Withdraw p -> m.outs <- remove (p, k) m.outs)
      updates

  let receive m ~now k p ann =
    if not (List.mem k m.down) then begin
      let key = (p, k) in
      let n, rel = neighbors.(k) in
      (match (ann, List.assoc_opt key m.ins) with
      | None, Some _ -> note_flap m ~now key
      | Some a, Some prev when not (Bgp.Route.announcement_equal a prev.Bgp.Route.ann) ->
          note_flap m ~now key
      | _ -> ());
      (match ann with
      | None -> m.ins <- remove key m.ins
      | Some a -> (
          match
            Bgp.Policy.import m.config ~self ~peers:(asn 201) ~is_peer:Asn.equal ~rel a
          with
          | Bgp.Policy.Rejected _ -> m.ins <- remove key m.ins
          | Bgp.Policy.Accepted ->
              m.ins <-
                set key
                  (Bgp.Route.make_entry ~ann:a ~neighbor:n ~rel
                     ~local_pref:(Bgp.Policy.local_pref_for m.config ~self ~neighbor:n ~rel)
                     ~tiebreak:(Bgp.Route.tiebreak_rank ~salt:(Asn.to_int self) n))
                  m.ins));
      refresh m ~now p
    end

  let live_prefixes l = List.sort_uniq Prefix.compare (List.map fst l)

  let entry_key (e : Bgp.Route.entry) =
    (Asn.to_int e.neighbor, Bgp.As_path.to_string e.ann.path, e.local_pref)

  let agree sp m step =
    let fail what = QCheck.Test.fail_reportf "step %d: %s" step what in
    Array.iter
      (fun p ->
        let want = Option.map entry_key (List.assoc_opt p m.best) in
        let got = Option.map entry_key (Bgp.Speaker.best sp p) in
        if want <> got then fail ("best of " ^ Prefix.to_string p);
        Array.iteri
          (fun k _ ->
            let want = desired m p k and got = List.assoc_opt (p, k) m.outs in
            if not (Option.equal Bgp.As_path.equal want got) then
              fail (Printf.sprintf "adj-RIB-out of %s toward neighbor %d" (Prefix.to_string p) k))
          neighbors)
      pool;
    if not (List.equal Prefix.equal (Bgp.Speaker.prefixes sp) (live_prefixes m.best)) then
      fail "prefixes";
    if not (List.equal Prefix.equal (Bgp.Speaker.originated sp) (live_prefixes m.locals)) then
      fail "originated"

  let run ~damped ~presized ops =
    let config =
      {
        Bgp.Policy.default with
        reject_peers_in_customer_paths = true;
        damping = (if damped then Some damping else None);
      }
    in
    let store = Bgp.Path_store.create () in
    if presized then
      List.iter
        (fun s -> ignore (Bgp.Path_store.prefix_id store (prefix s)))
        [ "172.16.0.0/12"; "172.16.0.0/16"; "172.17.0.0/16"; "172.18.0.0/16"; "172.19.0.0/16" ];
    let sp =
      standalone_speaker ~store ~asn:self ~config ~neighbors:(Array.to_list neighbors) ()
    in
    let m = { config; ins = []; locals = []; best = []; outs = []; down = []; damp = [] } in
    let now = ref 0.0 in
    List.iteri
      (fun i (op, dt) ->
        now := !now +. float_of_int dt;
        let now = !now in
        (match op with
        | Ann (k, j, rest) ->
            let p = prefix_at i j in
            let n = fst neighbors.(k) in
            let ann =
              Bgp.Route.announcement ~prefix:p ~path:(as_path (n :: List.map asn rest))
            in
            let send () = Bgp.Speaker.receive sp ~now ~session:k (Bgp.Speaker.Announce ann) in
            sent m (send ());
            receive m ~now k p (Some ann);
            if send () <> [] then QCheck.Test.fail_reportf "step %d: unchanged re-send emitted" i;
            receive m ~now k p (Some ann)
        | Wd (k, j) ->
            let p = prefix_at i j in
            sent m (Bgp.Speaker.receive sp ~now ~session:k (Bgp.Speaker.Withdraw p));
            receive m ~now k p None
        | Orig (j, variant, single) ->
            let p = prefix_at i j in
            sent m
              (Bgp.Speaker.originate sp ~now ~prefix:p ~per_neighbor:(per_neighbor variant single));
            m.locals <- set p (variant, single) m.locals;
            refresh m ~now p
        | Stop j ->
            let p = prefix_at i j in
            sent m (Bgp.Speaker.stop_originating sp ~now ~prefix:p);
            m.locals <- remove p m.locals;
            refresh m ~now p
        | Down k ->
            sent m (Bgp.Speaker.session_down sp ~now ~neighbor:(fst neighbors.(k)));
            if not (List.mem k m.down) then begin
              let affected =
                List.filter_map (fun ((p, k'), _) -> if k' = k then Some p else None) m.ins
                @ List.map fst m.locals
              in
              m.down <- k :: m.down;
              m.ins <- List.filter (fun ((_, k'), _) -> k' <> k) m.ins;
              m.outs <- List.filter (fun ((_, k'), _) -> k' <> k) m.outs;
              List.iter (refresh m ~now) (List.sort_uniq Prefix.compare affected)
            end
        | Up k ->
            sent m (Bgp.Speaker.session_up sp ~now ~neighbor:(fst neighbors.(k)));
            if List.mem k m.down then begin
              m.down <- List.filter (( <> ) k) m.down;
              if m.damp <> [] then
                List.iter (refresh m ~now)
                  (List.sort_uniq Prefix.compare (List.map fst m.best @ List.map fst m.locals))
            end
        | Refresh j -> sent m (Bgp.Speaker.refresh_prefix sp ~prefix:(prefix_at i j))
        | Reeval j ->
            let p = prefix_at i j in
            sent m (Bgp.Speaker.reevaluate sp ~now p);
            refresh m ~now p);
        agree sp m i)
      ops;
    true

  let print_op = function
    | Ann (k, j, rest) ->
        Printf.sprintf "Ann(%d,%d,[%s])" k j (String.concat ";" (List.map string_of_int rest))
    | Wd (k, j) -> Printf.sprintf "Wd(%d,%d)" k j
    | Orig (j, v, k) -> Printf.sprintf "Orig(%d,%d,%d)" j v k
    | Stop j -> Printf.sprintf "Stop %d" j
    | Down k -> Printf.sprintf "Down %d" k
    | Up k -> Printf.sprintf "Up %d" k
    | Refresh j -> Printf.sprintf "Refresh %d" j
    | Reeval j -> Printf.sprintf "Reeval %d" j

  let op_gen =
    let open QCheck.Gen in
    let k = int_bound 3 and j = int_bound 5 in
    (* ASNs a path may carry after its sender: [100] is the speaker itself
       (a loop, rejected), [201] its peer (rejected from a customer when
       configured). *)
    let hop = oneofl [ 100; 201; 300; 301; 302; 303 ] in
    frequency
      [
        (8, map3 (fun k j rest -> Ann (k, j, rest)) k j (list_size (int_bound 3) hop));
        (3, map2 (fun k j -> Wd (k, j)) k j);
        (2, map3 (fun j v k -> Orig (j, v, k)) j (int_bound 3) k);
        (1, map (fun j -> Stop j) j);
        (1, map (fun k -> Down k) k);
        (1, map (fun k -> Up k) k);
        (1, map (fun j -> Refresh j) j);
        (1, map (fun j -> Reeval j) j);
      ]

  let test ~damped =
    let name =
      Printf.sprintf "speaker = assoc-list model (damping %s)" (if damped then "on" else "off")
    in
    let arb =
      QCheck.make
        ~print:(fun (presized, ops) ->
          Printf.sprintf "presized=%b %s" presized
            (String.concat " "
               (List.map (fun (op, dt) -> Printf.sprintf "%s+%d" (print_op op) dt) ops)))
        QCheck.Gen.(
          (* Short gaps bunch flaps into suppressions; long ones let a
             penalty decay to reuse. *)
          let gap = frequency [ (4, int_bound 60); (1, int_range 300 1200) ] in
          pair bool (list_size (int_range 10 60) (pair op_gen gap)))
    in
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])
      (QCheck.Test.make ~name ~count:200 arb (fun (presized, ops) -> run ~damped ~presized ops))
end

(* The FIB is a field of each prefix's slot, matched through the
   world's one prefix trie. [fib_lookup] and [fib_find] must equal a
   reference longest-prefix match over the routes the speaker has
   installed. Two speakers share one store. The pool nests prefixes (a
   /23 sentinel over its production /24, a /25 inside that, a /16 inside
   a /8), and the script also puts pool prefixes into the store without
   giving this speaker a route for them: through the other speaker, or
   by registering an id directly. So the walk passes prefixes this
   speaker holds no entry for. In delayed runs the commit hook queues
   each install and the script installs the oldest ones at its own pace,
   so the FIB trails the loc-RIB; in immediate runs the FIB is the
   loc-RIB. *)
module Fib_model = struct
  open Topology

  type op =
    | Ann of int * int * int  (** neighbor, prefix, path length *)
    | Wd of int * int  (** neighbor, prefix *)
    | Other of int  (** the other speaker learns the prefix *)
    | Known of int  (** the store assigns the prefix an id *)
    | Install of int  (** install the oldest queued commits *)

  let pool =
    Array.map prefix
      [| "203.0.112.0/23"; "203.0.113.0/24"; "203.0.113.128/25"; "10.0.0.0/8"; "10.1.0.0/16" |]

  let neighbors = [| asn 200; asn 201 |]

  (* Each pool prefix's first, second and last address, and one address
     no pool prefix covers. *)
  let addresses =
    ipv4 "192.0.2.1"
    :: List.concat_map
         (fun p ->
           [
             Prefix.first_address p;
             Prefix.nth_address p 1;
             Prefix.nth_address p ((1 lsl (32 - Prefix.length p)) - 1);
           ])
         (Array.to_list pool)

  let run ~delayed ops =
    let store = Bgp.Path_store.create () in
    let mk self nbrs =
      standalone_speaker ~store ~asn:self ~config:Bgp.Policy.default
        ~neighbors:(List.map (fun n -> (n, Relationship.Provider)) nbrs)
        ()
    in
    let sp = mk (asn 100) (Array.to_list neighbors) in
    let other = mk (asn 500) [ asn 200 ] in
    let queue = Queue.create () in
    if delayed then Bgp.Speaker.set_fib_commit_hook sp (fun p e -> Queue.add (p, e) queue);
    (* The routes installed at [sp], by prefix (delayed runs). *)
    let installed = ref [] in
    let install () =
      let p, e = Queue.pop queue in
      Bgp.Speaker.install_fib sp p e;
      let others = List.filter (fun (q, _) -> not (Prefix.equal p q)) !installed in
      installed := (match e with Some e -> (p, e) :: others | None -> others)
    in
    let announce receiver n j len =
      let path = as_path (n :: List.init len (fun i -> asn (900 + i))) in
      ignore
        (Bgp.Speaker.receive receiver ~now:0.0 ~session:(session_ix receiver n)
           (Bgp.Speaker.Announce (Bgp.Route.announcement ~prefix:pool.(j) ~path)))
    in
    let check step =
      let installed =
        if delayed then !installed
        else
          List.filter_map
            (fun p -> Option.map (fun e -> (p, e)) (Bgp.Speaker.best sp p))
            (Array.to_list pool)
      in
      let same_entry = Option.equal ( == ) in
      List.iter
        (fun ip ->
          let want = longest_match installed ip in
          let got = Bgp.Speaker.fib_lookup sp ip in
          let agree =
            Option.equal (fun (p, e) (q, f) -> Prefix.equal p q && e == f) want got
            && same_entry (Option.map snd want) (Bgp.Speaker.fib_find sp ip)
          in
          if not agree then
            QCheck.Test.fail_reportf "step %d: FIB match for %s: want %s, got %s" step
              (Ipv4.to_string ip)
              (match want with Some (p, _) -> Prefix.to_string p | None -> "none")
              (match got with Some (p, _) -> Prefix.to_string p | None -> "none"))
        addresses;
      List.iter
        (fun (p, e) ->
          if not (same_entry (Some e) (Bgp.Speaker.fib_entry sp p)) then
            QCheck.Test.fail_reportf "step %d: exact FIB entry of %s" step (Prefix.to_string p))
        installed
    in
    List.iteri
      (fun step op ->
        (match op with
        | Ann (k, j, len) -> announce sp neighbors.(k) j len
        | Wd (k, j) ->
            ignore
              (Bgp.Speaker.receive sp ~now:0.0 ~session:k (Bgp.Speaker.Withdraw pool.(j)))
        | Other j -> announce other (asn 200) j 1
        | Known j -> ignore (Bgp.Path_store.prefix_id store pool.(j))
        | Install n ->
            for _ = 1 to min n (Queue.length queue) do
              install ()
            done);
        check step)
      ops;
    (* Draining the queue catches the FIB up with the loc-RIB. *)
    while not (Queue.is_empty queue) do
      install ()
    done;
    check (List.length ops);
    true

  let print_op = function
    | Ann (k, j, len) -> Printf.sprintf "Ann(%d,%d,%d)" k j len
    | Wd (k, j) -> Printf.sprintf "Wd(%d,%d)" k j
    | Other j -> Printf.sprintf "Other %d" j
    | Known j -> Printf.sprintf "Known %d" j
    | Install n -> Printf.sprintf "Install %d" n

  let test ~delayed =
    let name =
      Printf.sprintf "FIB lookup = longest match over installed routes (%s installs)"
        (if delayed then "delayed" else "immediate")
    in
    let op_gen =
      let open QCheck.Gen in
      let k = int_bound 1 and j = int_bound (Array.length pool - 1) in
      frequency
        [
          (5, map3 (fun k j len -> Ann (k, j, len)) k j (int_range 1 3));
          (3, map2 (fun k j -> Wd (k, j)) k j);
          (1, map (fun j -> Other j) j);
          (1, map (fun j -> Known j) j);
          (3, map (fun n -> Install n) (int_bound 3));
        ]
    in
    let arb =
      QCheck.make
        ~print:(fun ops -> String.concat " " (List.map print_op ops))
        QCheck.Gen.(list_size (int_range 5 40) op_gen)
    in
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])
      (QCheck.Test.make ~name ~count:200 arb (run ~delayed))
end

(* Flap re-sync at one speaker. Its prefixes are first seen out of
   [Prefix.compare] order, so the store's ids are not in prefix order;
   a more-specific prefix first appears after a session_up has already
   walked the store's prefix order, so that order must be rebuilt. Every
   list session_down and session_up return is in prefix order. A
   session_up after the best moved must announce the new export: the
   slot's cached export of its best is reset when the best is replaced. *)
let test_flap_resync_order_and_export () =
  let open Topology in
  let store = Bgp.Path_store.create () in
  let sp =
    standalone_speaker ~store ~asn:(asn 100) ~config:Bgp.Policy.default
      ~neighbors:
        [
          (asn 200, Relationship.Customer);
          (asn 201, Relationship.Customer);
          (asn 202, Relationship.Provider);
        ]
      ()
  in
  let announce ~from p path =
    by_neighbor sp
      (Bgp.Speaker.receive sp ~now:0.0 ~session:(session_ix sp from)
         (Bgp.Speaker.Announce
            (Bgp.Route.announcement ~prefix:(prefix p)
               ~path:(as_path (List.map asn path)))))
  in
  let first_seen = [ "192.0.2.0/24"; "10.0.0.0/8"; "172.16.0.0/12"; "10.1.0.0/16" ] in
  List.iter (fun p -> ignore (announce ~from:(asn 200) p [ 200; 900; 901 ])) first_seen;
  let prefixes_of updates =
    List.map
      (function
        | _, Bgp.Speaker.Announce ann -> ann.Bgp.Route.prefix
        | _, Bgp.Speaker.Withdraw p -> p)
      updates
  in
  let in_order what updates =
    let ps = prefixes_of updates in
    Alcotest.(check (list string))
      (what ^ ": prefix order") (List.map Prefix.to_string (List.stable_sort Prefix.compare ps))
      (List.map Prefix.to_string ps)
  in
  let toward n updates = List.filter (fun (m, _) -> Asn.equal m (asn n)) updates in
  let exports updates =
    List.map
      (fun (_, action) ->
        match action with
        | Bgp.Speaker.Announce ann ->
            Printf.sprintf "%s %s" (Prefix.to_string ann.Bgp.Route.prefix)
              (Bgp.As_path.to_string ann.Bgp.Route.path)
        | Bgp.Speaker.Withdraw p -> "withdraw " ^ Prefix.to_string p)
      updates
  in
  let cycle n =
    let down = by_neighbor sp (Bgp.Speaker.session_down sp ~now:1.0 ~neighbor:(asn n)) in
    let up = by_neighbor sp (Bgp.Speaker.session_up sp ~now:2.0 ~neighbor:(asn n)) in
    (down, up)
  in
  (* Provider 202: nothing to withdraw (it sent nothing), and the
     re-sync announces every prefix, in prefix order. *)
  let down, up = cycle 202 in
  Alcotest.(check int) "202 down: nothing to say" 0 (List.length down);
  in_order "202 up" up;
  Alcotest.(check int) "202 up: every prefix" 4 (List.length up);
  (* A more-specific prefix appears after the order was used. *)
  ignore (announce ~from:(asn 200) "10.1.2.0/24" [ 200; 900; 901 ]);
  let _, up = cycle 202 in
  in_order "202 up after a new prefix" up;
  Alcotest.(check (list string))
    "202 up after a new prefix: exports"
    [
      "10.0.0.0/8 100 200 900 901";
      "10.1.0.0/16 100 200 900 901";
      "10.1.2.0/24 100 200 900 901";
      "172.16.0.0/12 100 200 900 901";
      "192.0.2.0/24 100 200 900 901";
    ]
    (exports up);
  (* Customer 200 carried every route: its session_down withdraws all of
     them, toward both other neighbors, in prefix order. *)
  let down, up = cycle 200 in
  in_order "200 down" down;
  Alcotest.(check int) "200 down: two withdrawals per prefix" 10 (List.length down);
  Alcotest.(check int) "200 up: nothing to announce" 0 (List.length up);
  List.iter (fun p -> ignore (announce ~from:(asn 200) p [ 200; 900; 901 ]))
    ("10.1.2.0/24" :: first_seen);
  (* The best of 10.0.0.0/8 moves to a shorter route through 201 while
     202 is down; 202's re-sync must carry it. *)
  ignore (Bgp.Speaker.session_down sp ~now:3.0 ~neighbor:(asn 202));
  ignore (announce ~from:(asn 201) "10.0.0.0/8" [ 201 ]);
  let up = by_neighbor sp (Bgp.Speaker.session_up sp ~now:4.0 ~neighbor:(asn 202)) in
  in_order "202 up after the best moved" up;
  Alcotest.(check (list string))
    "202 up after the best moved: exports"
    [
      "10.0.0.0/8 100 201";
      "10.1.0.0/16 100 200 900 901";
      "10.1.2.0/24 100 200 900 901";
      "172.16.0.0/12 100 200 900 901";
      "192.0.2.0/24 100 200 900 901";
    ]
    (exports (toward 202 up))

(* Collector subscriptions. Two collectors with overlapping peers, one
   attached after the first convergence, watch a generated world through
   announcements, a link failure and its repair. The reference is each
   AS's [Speaker.best], polled after every engine event and every
   control-plane call: a collector must log exactly its peers' changes
   from its attach time on, and [route_view] must give each peer's last
   logged route. A non-peer's change is logged nowhere.
   The same script on a 2-shard world gives the same logs. *)
let route_key (e : Bgp.Route.entry option) =
  Option.map
    (fun (e : Bgp.Route.entry) -> (Asn.to_int e.neighbor, Bgp.As_path.to_string e.ann.path))
    e

(* A reference log of the best changes of [ases] for [prefixes]: [poll]
   records every change since the last poll, stamped with the clock, and
   [changes ()] lists them oldest first. [prefixes] go in
   [Prefix.compare] order, the order in which a session event changes a
   speaker's prefixes, so that simultaneous changes are listed as a log
   lists them. *)
let best_changes net ~ases ~prefixes =
  let seen = Hashtbl.create 64 and changes = ref [] in
  let poll () =
    List.iter
      (fun a ->
        List.iter
          (fun p ->
            let route = route_key (Bgp.Network.best_route net a p) in
            if route <> Option.join (Hashtbl.find_opt seen (a, p)) then begin
              Hashtbl.replace seen (a, p) route;
              changes := (Sim.Engine.now (Bgp.Network.engine net), a, p, route) :: !changes
            end)
          prefixes)
      ases
  in
  (poll, fun () -> List.rev !changes)

(* Converge, polling after every event when unsharded, then move the
   clock on to [until], so that each phase starts at the same instant
   whatever the sharding. *)
let drive net ~shards ~poll ~until =
  let engine = Bgp.Network.engine net in
  if shards = None then
    while Sim.Engine.step engine do
      poll ()
    done
  else Bgp.Network.run_until_quiet net;
  Sim.Engine.run ~until engine;
  poll ()

let collector_script ~shards =
  let open Topology in
  let topo = Topo_gen.generate ~params:(Topo_gen.sized 40) ~seed:5 () in
  let graph = topo.Topo_gen.graph in
  let engine = Sim.Engine.create () in
  let net = Bgp.Network.create ~engine ~graph ~mrai:5.0 ?shards () in
  let ases = As_graph.as_list graph in
  let p1 = prefix "203.0.113.0/24" and p2 = prefix "198.51.100.0/24" in
  let poll, changes = best_changes net ~ases ~prefixes:[ p1; p2 ] in
  let run ~until = drive net ~shards ~poll ~until in
  let origin = List.hd topo.Topo_gen.stub_list in
  let first = List.filteri (fun i _ -> i < 12) ases in
  let second = List.filteri (fun i _ -> i >= 6 && i < 20) ases in
  let outside = asn 999_999 in
  let c1 = Bgp.Network.Collector.attach net ~peers:first in
  Bgp.Network.Collector.clear c1 (* start the log *);
  Bgp.Network.announce net ~origin ~prefix:p1 ();
  poll ();
  run ~until:100.0;
  (* c2 sees the changes from this one on. *)
  let attached = List.length (changes ()) in
  let c2 =
    Bgp.Network.Collector.attach net ~peers:((outside :: second) @ [ List.nth second 0 ])
  in
  Bgp.Network.Collector.clear c2;
  let provider = fst (List.hd (As_graph.neighbors graph origin)) in
  Bgp.Network.announce net ~origin ~prefix:p2 ();
  poll ();
  Bgp.Network.fail_link net ~a:origin ~b:provider;
  poll ();
  run ~until:200.0;
  Bgp.Network.restore_link net ~a:origin ~b:provider;
  poll ();
  run ~until:300.0;
  (ases, [ (c1, first, 0); (c2, second, attached) ], changes (), [ p1; p2 ])

let record_line (t, a, p, r) =
  Printf.sprintf "%.4f %d %s %s" t (Asn.to_int a) (Prefix.to_string p)
    (match r with Some (n, path) -> Printf.sprintf "%d: %s" n path | None -> "-")

let render log =
  List.map
    (fun (r : Bgp.Network.update_record) ->
      record_line (r.time, r.speaker, r.prefix, route_key r.route))
    log

let test_collector_subscriptions () =
  let ases, collectors, changes, prefixes = collector_script ~shards:None in
  let peers_of_any = List.concat_map (fun (_, peers, _) -> peers) collectors in
  Alcotest.(check bool)
    "some AS outside every collector changed its best" true
    (List.exists (fun (_, a, _, _) -> not (List.mem a peers_of_any)) changes);
  List.iteri
    (fun i (c, peers, since) ->
      let name = Printf.sprintf "collector %d" (i + 1) in
      let want =
        List.filteri (fun i (_, a, _, _) -> i >= since && List.mem a peers) changes
        |> List.map record_line
      in
      Alcotest.(check bool) (name ^ ": logged something") true (want <> []);
      Alcotest.(check (list string))
        (name ^ ": log = its peers' best changes")
        want
        (render (Bgp.Network.Collector.since c neg_infinity));
      List.iter
        (fun a ->
          List.iter
            (fun p ->
              let last = ref None in
              List.iteri
                (fun i (_, a', p', r) ->
                  if i >= since && Asn.equal a a' && Prefix.equal p p' && List.mem a peers then
                    last := Some r)
                changes;
              let last = !last in
              let view = Bgp.Network.Collector.route_view c ~peer:a ~prefix:p in
              Alcotest.(check bool)
                (Printf.sprintf "%s: route_view of %d" name (Asn.to_int a))
                true
                (Option.map route_key view = last))
            prefixes)
        ases)
    collectors;
  (* A sharded log merges its slices in (time, speaker) order, which can
     differ from the unsharded event order among records of one instant;
     in that order the two logs must be equal. *)
  let canonical log =
    List.stable_sort
      (fun (r1 : Bgp.Network.update_record) (r2 : Bgp.Network.update_record) ->
        match Float.compare r1.time r2.time with 0 -> Asn.compare r1.speaker r2.speaker | c -> c)
      log
  in
  let _, sharded, _, _ = collector_script ~shards:(Some 2) in
  List.iteri
    (fun i ((c, _, _), (c', _, _)) ->
      Alcotest.(check (list string))
        (Printf.sprintf "collector %d: 2 shards = unsharded" (i + 1))
        (render (canonical (Bgp.Network.Collector.since c neg_infinity)))
        (render (Bgp.Network.Collector.since c' neg_infinity)))
    (List.combine collectors sharded)

(* Collector retention. A scripted flap storm on a 40-AS world: two
   prefixes go out, then links flap one at a time, each phase starting
   at a fixed instant. [watch] attaches collectors to the world's peers
   before anything is announced. The hooks get what [watch] returned:
   [poll] runs after every engine event and every control-plane call
   (unsharded) or after every phase (sharded), [converged] once the
   baseline has settled, and [mid] in the middle of a burst. *)
let storm_prefixes = [ prefix "198.51.100.0/24"; prefix "203.0.113.0/24" ]

let flap_storm ?(poll = ignore) ?(converged = fun _ _ -> ()) ?(mid = ignore) ~shards ~watch () =
  let open Topology in
  let topo = Topo_gen.generate ~params:(Topo_gen.sized 40) ~seed:9 () in
  let graph = topo.Topo_gen.graph in
  let engine = Sim.Engine.create () in
  let net = Bgp.Network.create ~engine ~graph ~mrai:5.0 ?shards () in
  let ases = As_graph.as_list graph in
  let watched = watch net ~peers:(List.filteri (fun i _ -> i mod 4 <> 3) ases) in
  let poll () = poll watched in
  let origin = List.hd topo.Topo_gen.stub_list in
  List.iter (fun p -> Bgp.Network.announce net ~origin ~prefix:p ()) storm_prefixes;
  poll ();
  drive net ~shards ~poll ~until:300.0;
  converged watched net;
  let flaps =
    (origin, fst (List.hd (As_graph.neighbors graph origin)))
    :: List.filter_map
         (fun a ->
           match As_graph.neighbors graph a with (b, _) :: _ -> Some (a, b) | [] -> None)
         (List.filteri (fun i _ -> i mod 4 = 1) ases)
  in
  List.iteri
    (fun i (a, b) ->
      let t = 600.0 *. float_of_int (i + 1) in
      Bgp.Network.fail_link net ~a ~b;
      poll ();
      if i = List.length flaps / 2 then mid watched;
      drive net ~shards ~poll ~until:t;
      Bgp.Network.restore_link net ~a ~b;
      poll ();
      drive net ~shards ~poll ~until:(t +. 300.0))
    flaps;
  (net, watched)

(* Three collectors watch the same peers: [quiet] never starts its log,
   [twin] starts it at attach, and [late] in the middle of a burst. The
   reference is the peers' best changes; at every poll [quiet] must
   answer [count] and [route_view] as [twin] does.
   Returns the collectors, the reference and the index in it of
   [late]'s start. *)
let watched_storm ~shards =
  let module C = Bgp.Network.Collector in
  let watch net ~peers =
    let quiet = C.attach net ~peers in
    let twin = C.attach net ~peers in
    let late = C.attach net ~peers in
    C.clear twin;
    let reference, changes = best_changes net ~ases:peers ~prefixes:storm_prefixes in
    (quiet, twin, late, peers, reference, changes, ref 0)
  in
  let polls = ref 0 in
  let poll (quiet, twin, _, peers, reference, _, _) =
    reference ();
    incr polls;
    if C.count quiet <> C.count twin then Alcotest.failf "count differs at poll %d" !polls;
    List.iter
      (fun a ->
        List.iter
          (fun p ->
            if C.route_view quiet ~peer:a ~prefix:p <> C.route_view twin ~peer:a ~prefix:p then Alcotest.failf "views of %d differ at poll %d" (Asn.to_int a) !polls)
          storm_prefixes)
      peers
  in
  let mid (_, _, late, _, _, changes, late_from) =
    C.clear late;
    late_from := List.length (changes ())
  in
  let _, (quiet, twin, late, _, _, changes, late_from) = flap_storm ~poll ~mid ~shards ~watch () in
  ((quiet, twin, late), changes (), !late_from)

let test_collector_retains_only_started_log () =
  let module C = Bgp.Network.Collector in
  let (quiet, twin, late), changes, late_from = watched_storm ~shards:None in
  let reference ~from = List.filteri (fun i _ -> i >= from) changes |> List.map record_line in
  Alcotest.(check (list string)) "twin: log = the peers' best changes" (reference ~from:0)
    (render (C.since twin neg_infinity));
  Alcotest.(check bool) "late started mid-run" true
    (late_from > 0 && late_from < List.length changes);
  Alcotest.(check (list string)) "late: log = the changes since its start"
    (reference ~from:late_from) (render (C.since late neg_infinity));
  Alcotest.(check int) "quiet: no log" 0 (List.length (C.since quiet neg_infinity));
  Alcotest.(check int) "quiet: count = twin's records"
    (List.length (C.since twin neg_infinity))
    (C.count quiet);
  Alcotest.(check int) "late: count since attach" (C.count twin) (C.count late);
  (* The 2-shard world counts the same records. *)
  let (quiet2, twin2, late2), _, _ = watched_storm ~shards:(Some 2) in
  Alcotest.(check (list int)) "2 shards: counts"
    (List.map C.count [ quiet; twin; late ])
    (List.map C.count [ quiet2; twin2; late2 ]);
  Alcotest.(check int) "2 shards: quiet has no log" 0 (List.length (C.since quiet2 neg_infinity));
  Alcotest.(check int) "2 shards: twin's log" (List.length (C.since twin neg_infinity))
    (List.length (C.since twin2 neg_infinity));
  (* Retention: from the converged baseline to the storm's end, a world
     watched by [quiet] alone grows as much as the same world without a
     collector, although the storm brings it dozens of records; a
     retained record costs 8 words. *)
  let growth watch =
    let words net = Obj.reachable_words (Obj.repr net) in
    let before = ref (0, 0) in
    let count = Option.fold ~none:0 ~some:C.count in
    let net, c =
      flap_storm ~shards:None ~watch
        ~converged:(fun c net -> before := (words net, count c))
        ()
    in
    (words net - fst !before, count c - snd !before)
  in
  let bare, _ = growth (fun _ ~peers:_ -> None) in
  let watched, records =
    growth (fun net ~peers -> Some (C.attach net ~peers))
  in
  Alcotest.(check bool) (Printf.sprintf "the storm brought %d records" records) true (records > 50);
  Alcotest.(check bool)
    (Printf.sprintf "quiet retained %d words over %d records" (watched - bare) records)
    true
    (watched - bare < records)

(* Collector views read the speaker. The flap storm again, with three
   collectors on the same peers (never cleared, cleared at attach,
   cleared mid-burst); a quarter of the world is outside every
   collector, and a name outside the world is one collector's peer too.
   The reference is kept by the test: at every poll, each best change of
   any AS since the last poll goes into the map of every collector the
   AS is a peer of, and a clear empties that collector's map. At every
   poll [route_view] must equal the map for every AS of the world and
   both prefixes: [None] where the map has nothing. *)
let test_collector_views_read_the_speaker () =
  let module C = Bgp.Network.Collector in
  let outside = asn 999_999 in
  let watch net ~peers =
    let never = C.attach net ~peers:(outside :: peers) in
    let at_attach = C.attach net ~peers in
    C.clear at_attach;
    let mid = C.attach net ~peers in
    let ases = Topology.As_graph.as_list (Bgp.Network.graph net) in
    let reference, changes = best_changes net ~ases ~prefixes:storm_prefixes in
    let views =
      List.map
        (fun (name, c) -> (name, c, Hashtbl.create 64))
        [ ("never", never); ("at-attach", at_attach); ("mid-burst", mid) ]
    in
    (outside :: ases, peers, views, mid, reference, changes, ref 0)
  in
  let polls = ref 0 and outside_changes = ref 0 in
  let poll (ases, peers, views, _, reference, changes, seen) =
    reference ();
    incr polls;
    let all = changes () in
    List.iteri
      (fun i (_, a, p, r) ->
        if i >= !seen then
          if List.mem a peers then List.iter (fun (_, _, map) -> Hashtbl.replace map (a, p) r) views
          else incr outside_changes)
      all;
    seen := List.length all;
    List.iter
      (fun (name, c, map) ->
        List.iter
          (fun a ->
            List.iter
              (fun p ->
                let want = Hashtbl.find_opt map (a, p) in
                let got = Option.map route_key (C.route_view c ~peer:a ~prefix:p) in
                if got <> want then
                  Alcotest.failf "%s: view of %d at poll %d: want %s, got %s" name
                    (Asn.to_int a) !polls
                    (match want with None -> "no record" | Some _ -> "a record")
                    (match got with None -> "no record" | Some _ -> "a record"))
              storm_prefixes)
          ases)
      views
  in
  let mid (_, _, views, mid, _, _, _) =
    C.clear mid;
    List.iter (fun (_, c, map) -> if c == mid then Hashtbl.reset map) views
  in
  ignore (flap_storm ~poll ~mid ~shards:None ~watch ());
  Alcotest.(check bool) "ASes outside every collector changed their best" true
    (!outside_changes > 0)

(* Every directed session is wired both ways: the session's [peer] is the
   speaker of its [asn], and the reverse session at [back] leads back to
   the sender's speaker and to this session's index. *)
let test_sessions_wired_both_ways () =
  let open Topology in
  List.iter
    (fun seed ->
      let graph = (Topo_gen.generate ~params:(Topo_gen.sized 100) ~seed ()).Topo_gen.graph in
      let net = Bgp.Network.create ~engine:(Sim.Engine.create ()) ~graph () in
      let wired = ref 0 in
      List.iter
        (fun a ->
          let sp = Bgp.Network.speaker net a in
          let sessions = Bgp.Speaker.sessions sp in
          Alcotest.(check (list int))
            (Printf.sprintf "seed %d: sessions of %d" seed (Asn.to_int a))
            (List.sort compare (List.map (fun (n, _) -> Asn.to_int n) (As_graph.neighbors graph a)))
            (Array.to_list (Array.map (fun (s : Bgp.Speaker.session) -> Asn.to_int s.asn) sessions));
          Array.iteri
            (fun i (s : Bgp.Speaker.session) ->
              let fail what =
                Alcotest.failf "seed %d: session %d -> %d: %s" seed (Asn.to_int a) (Asn.to_int s.asn)
                  what
              in
              if s.ix <> i then fail "index";
              if not (Asn.equal (Bgp.Speaker.asn s.peer) s.asn) then fail "receiver";
              if s.peer != Bgp.Network.speaker net s.asn then fail "receiver's speaker";
              let back = (Bgp.Speaker.sessions s.peer).(s.back) in
              if not (Asn.equal back.asn a) then fail "reverse session's ASN";
              if back.peer != sp || back.back <> i then fail "reverse session's way back";
              incr wired)
            sessions)
        (As_graph.as_list graph);
      Alcotest.(check int)
        (Printf.sprintf "seed %d: every directed link" seed)
        (List.fold_left (fun n a -> n + List.length (As_graph.neighbors graph a)) 0
           (As_graph.as_list graph))
        !wired)
    [ 1; 2 ]

let suite =
  suite
  @ [
      Alcotest.test_case "flap damping suppresses and reuses" `Quick
        test_flap_damping_suppresses_and_reuses;
      Alcotest.test_case "no damping unless configured" `Quick test_no_damping_without_config;
      Alcotest.test_case "session_up vs same-window poison (fig2)" `Quick
        test_session_up_poison_same_window;
      Alcotest.test_case "words per delivered update" `Quick test_words_per_update;
      Alcotest.test_case "world size is history-independent" `Quick
        test_history_independent_size;
      Alcotest.test_case "fork: empty cells stay empty" `Quick test_fork_empty_cells;
      Alcotest.test_case "flap re-sync: prefix order and fresh export" `Quick
        test_flap_resync_order_and_export;
      Alcotest.test_case "collector subscriptions" `Quick test_collector_subscriptions;
      Speaker_model.test ~damped:false;
      Speaker_model.test ~damped:true;
      Fib_model.test ~delayed:false;
      Fib_model.test ~delayed:true;
      Alcotest.test_case "collector retains only a started log" `Quick
        test_collector_retains_only_started_log;
      Alcotest.test_case "collector views read the speaker" `Quick
        test_collector_views_read_the_speaker;
      Alcotest.test_case "sessions are wired both ways" `Quick test_sessions_wired_both_ways;
    ]
