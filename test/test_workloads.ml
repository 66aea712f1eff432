(* Outage generator calibration and scenario builders. *)

open Net
open Workloads

let test_duration_calibration () =
  let durations = Outage_gen.durations ~seed:42 ~n:10308 () in
  let median = Stats.Descriptive.median durations in
  Alcotest.(check bool)
    (Printf.sprintf "median near the floor (got %.0f)" median)
    true
    (median >= 90.0 && median <= 150.0);
  let le_10min = Stats.Descriptive.fraction (fun d -> d <= 600.0) durations in
  Alcotest.(check bool)
    (Printf.sprintf "more than 90%% of events <= 10 min (got %.3f)" le_10min)
    true (le_10min >= 0.90);
  let share = Outage_gen.unavailability_share_above durations ~threshold:600.0 in
  Alcotest.(check bool)
    (Printf.sprintf "long outages dominate unavailability (got %.2f)" share)
    true
    (share >= 0.65 && share <= 0.95);
  let min_d = fst (Stats.Descriptive.min_max durations) in
  Alcotest.(check bool) "floor respected" true (min_d >= 90.0)

let test_duration_survival () =
  let durations = Outage_gen.durations ~seed:42 ~n:10308 () in
  let s55 =
    Lifeguard.Decide.Residual.survival_fraction ~durations ~elapsed:300.0 ~horizon:300.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "of 5-min outages, ~half last 5 more (got %.2f)" s55)
    true
    (s55 >= 0.40 && s55 <= 0.62)

let test_shape_mix () =
  let rng = Prng.create ~seed:17 in
  let n = 5000 in
  let shapes = List.init n (fun _ -> Outage_gen.shape rng) in
  let frac pred = Stats.Descriptive.fraction_list pred shapes in
  let close msg expected got =
    Alcotest.(check bool) (Printf.sprintf "%s (expected %.2f, got %.2f)" msg expected got) true
      (Float.abs (expected -. got) < 0.03)
  in
  close "reverse share" 0.40 (frac (fun s -> s.Outage_gen.direction = Outage_gen.Reverse));
  close "forward share" 0.40 (frac (fun s -> s.Outage_gen.direction = Outage_gen.Forward));
  close "bidirectional share" 0.20
    (frac (fun s -> s.Outage_gen.direction = Outage_gen.Bidirectional));
  close "link share" 0.38 (frac (fun s -> s.Outage_gen.on_link))

(* An AS with no customers. *)
let is_stub g x =
  List.for_all
    (fun (_, rel) -> not (Topology.Relationship.equal rel Topology.Relationship.Customer))
    (Topology.As_graph.neighbors g x)

let test_planetlab_scenario () =
  let bed = Scenarios.planetlab ~ases:80 ~sites:6 ~target_count:5 ~seed:7 () in
  Alcotest.(check int) "sites" 6 (List.length bed.Scenarios.vantage_points);
  Alcotest.(check int) "targets" 5 (List.length bed.Scenarios.targets);
  (* All vantage points are stubs; all targets transit. *)
  List.iter
    (fun vp ->
      Alcotest.(check bool) "vp is a stub" true (is_stub bed.Scenarios.graph vp))
    bed.Scenarios.vantage_points;
  List.iter
    (fun t ->
      Alcotest.(check bool) "target is transit" false
        (is_stub bed.Scenarios.graph t))
    bed.Scenarios.targets;
  (* Converged infrastructure: VP pairs can ping each other. *)
  let vp1 = List.nth bed.Scenarios.vantage_points 0 in
  let vp2 = List.nth bed.Scenarios.vantage_points 1 in
  Alcotest.(check bool) "mesh connectivity" true
    (Dataplane.Probe.ping bed.Scenarios.probe ~src:vp1
       ~dst:(Dataplane.Forward.probe_address bed.Scenarios.net vp2))

let test_bgpmux_scenario () =
  let mux = Scenarios.bgpmux ~ases:80 ~seed:7 () in
  Alcotest.(check int) "providers" 5 (List.length mux.Scenarios.providers);
  Alcotest.(check int) "feeds" 40 (List.length mux.Scenarios.feeds);
  Lifeguard.Remediate.announce_baseline mux.Scenarios.bed.Scenarios.net mux.Scenarios.plan;
  Bgp.Network.run_until_quiet mux.Scenarios.bed.Scenarios.net;
  (* Every feed can reach the production prefix. *)
  List.iter
    (fun feed ->
      Alcotest.(check bool)
        (Printf.sprintf "feed %s routed" (Asn.to_string feed))
        true
        (Bgp.Network.best_route mux.Scenarios.bed.Scenarios.net feed
           Scenarios.production_prefix
        <> None))
    mux.Scenarios.feeds;
  let harvest = Scenarios.harvest_on_path_ases mux in
  Alcotest.(check bool) "harvest nonempty" true (harvest <> []);
  List.iter
    (fun h ->
      Alcotest.(check bool) "harvest excludes providers" false
        (List.exists (Asn.equal h) mux.Scenarios.providers))
    harvest

let test_case_study_initial_state () =
  let cs = Scenarios.Case_study.build () in
  let open Scenarios.Case_study in
  Lifeguard.Remediate.announce_baseline cs.bed.Scenarios.net cs.plan;
  Bgp.Network.run_until_quiet cs.bed.Scenarios.net;
  (* The Taiwanese site initially prefers the commercial chain through
     UUNET (shorter), exactly as on Oct 3, 2011, 8:15pm. *)
  match Bgp.Network.best_route cs.bed.Scenarios.net cs.taiwan Scenarios.production_prefix with
  | Some entry ->
      let path = entry.Bgp.Route.ann.Bgp.Route.path in
      Alcotest.(check bool) "via UUNET" true (Bgp.As_path.contains cs.uunet path);
      Alcotest.(check bool) "not via the academic chain" false
        (Bgp.As_path.contains cs.tanet path)
  | None -> Alcotest.fail "taiwan has no route"

let test_placement () =
  let bed = Scenarios.planetlab ~ases:80 ~sites:6 ~seed:7 () in
  let rng = Prng.create ~seed:11 in
  let src = List.nth bed.Scenarios.vantage_points 0 in
  let dst = List.nth bed.Scenarios.vantage_points 1 in
  let shape = { Outage_gen.direction = Outage_gen.Reverse; on_link = false; duration = 600.0 } in
  match Scenarios.Placement.on_path rng bed ~src ~dst ~shape () with
  | None -> Alcotest.fail "no placement found"
  | Some placed ->
      (* The failure must actually break dst -> src while src -> dst
         still works. *)
      Dataplane.Failure.add bed.Scenarios.failures placed.Scenarios.Placement.spec;
      Alcotest.(check bool) "reverse direction broken" false
        (Dataplane.Forward.delivers bed.Scenarios.net bed.Scenarios.failures ~src:dst
           ~dst:(Dataplane.Forward.probe_address bed.Scenarios.net src));
      Alcotest.(check bool) "forward direction intact" true
        (Dataplane.Forward.delivers bed.Scenarios.net bed.Scenarios.failures ~src
           ~dst:(Dataplane.Forward.probe_address bed.Scenarios.net dst));
      Dataplane.Failure.remove bed.Scenarios.failures placed.Scenarios.Placement.spec

let test_settle_advances_clock () =
  let bed = Scenarios.planetlab ~ases:80 ~sites:4 ~seed:7 () in
  let before = Sim.Engine.now bed.Scenarios.engine in
  Scenarios.settle bed ~seconds:100.0;
  Alcotest.(check bool) "clock advanced" true
    (Sim.Engine.now bed.Scenarios.engine >= before +. 100.0)

(* Fork oracle: a world forked from a template must be the world a fresh
   build reaches, route for route and tick for tick, and must go on to
   behave like it. *)

let route_of (e : Bgp.Route.entry) =
  Printf.sprintf "%s from %s" (Bgp.As_path.to_string e.Bgp.Route.ann.Bgp.Route.path)
    (Asn.to_string e.Bgp.Route.neighbor)

(* The route with its slot's change stamp: the world's loc-RIB change
   counter at the latest change of that best. Equal stamps everywhere
   mean the two worlds made every loc-RIB change in the same order. *)
let stamped_route_of speaker prefix e =
  Printf.sprintf "%s, change %d" (route_of e) (Bgp.Speaker.change_stamp speaker prefix)

(* Every AS's loc-RIB, every prefix in it. *)
let loc_ribs ?(route = stamped_route_of) net =
  List.concat_map
    (fun asn ->
      let speaker = Bgp.Network.speaker net asn in
      List.map
        (fun prefix ->
          Printf.sprintf "%s %s: %s" (Asn.to_string asn) (Prefix.to_string prefix)
            (match Bgp.Speaker.best speaker prefix with
            | Some e -> route speaker prefix e
            | None -> "-"))
        (List.sort Prefix.compare (Bgp.Speaker.prefixes speaker)))
    (Topology.As_graph.as_list (Bgp.Network.graph net))

let check_same_world what (a : Scenarios.testbed) (b : Scenarios.testbed) =
  Alcotest.(check (list string)) (what ^ ": loc-RIBs") (loc_ribs a.Scenarios.net)
    (loc_ribs b.Scenarios.net);
  Alcotest.(check (float 0.0)) (what ^ ": engine clock") (Sim.Engine.now a.Scenarios.engine)
    (Sim.Engine.now b.Scenarios.engine);
  Alcotest.(check int) (what ^ ": messages") (Bgp.Network.message_count a.Scenarios.net)
    (Bgp.Network.message_count b.Scenarios.net)

let routes_only _ _ e = route_of e

(* The record count, then the log (empty until a round starts it). *)
let collector_log mux =
  let c = mux.Scenarios.collector in
  Printf.sprintf "count %d" (Bgp.Network.Collector.count c)
  :: List.map
       (fun (r : Bgp.Network.update_record) ->
         Printf.sprintf "%h %s %s %s" r.Bgp.Network.time (Asn.to_string r.Bgp.Network.speaker)
           (Prefix.to_string r.Bgp.Network.prefix)
           (match r.Bgp.Network.route with Some e -> route_of e | None -> "-"))
       (Bgp.Network.Collector.since c neg_infinity)

let oracle_worlds = [ (1, 60); (7, 80); (13, 100) ]

(* For each AS in ASN order, the position of the first AS whose best
   production route is the same physical announcement ([-1]: no route). *)
let sharing_of net =
  let anns =
    List.map
      (fun a ->
        Option.map
          (fun e -> e.Bgp.Route.ann)
          (Bgp.Network.best_route net a Scenarios.production_prefix))
      (Topology.As_graph.as_list (Bgp.Network.graph net))
  in
  List.map
    (function
      | None -> -1
      | Some ann ->
          let rec first i = function
            | Some other :: _ when other == ann -> i
            | _ :: rest -> first (i + 1) rest
            | [] -> assert false
          in
          first 0 anns)
    anns

let test_fork_bgpmux () =
  let module P = Experiments.Poisoning in
  let baseline origin = Bgp.As_path.prepended ~origin ~copies:3 in
  List.iter
    (fun (seed, ases) ->
      let what = Printf.sprintf "bgpmux seed %d, %d ASes" seed ases in
      let fresh = P.mux ~ases ~seed () in
      P.announce fresh (baseline fresh.Scenarios.origin);
      let template = P.template ~ases ~seed ~baseline () in
      let fork = Template.fork template in
      check_same_world what fresh.Scenarios.bed fork.Scenarios.bed;
      (* Sharing inside the world survives the copy: ASes that hold one
         physical announcement (a neighbor's export) in the fresh world
         hold one in the fork too. *)
      let sharing = sharing_of fresh.Scenarios.bed.Scenarios.net in
      Alcotest.(check bool) (what ^ ": routes are shared") true
        (List.exists Fun.id (List.mapi (fun k i -> i >= 0 && i < k) sharing));
      Alcotest.(check (list int)) (what ^ ": sharing") sharing
        (sharing_of fork.Scenarios.bed.Scenarios.net);
      let converged = loc_ribs fork.Scenarios.bed.Scenarios.net in
      let baseline_log = collector_log fork in
      let target = List.hd (P.targets fresh ~rng:(Prng.create ~seed) ~n:1) in
      let round mux = P.round mux ~settle:120.0 ~target ~sample:ignore in
      let r_fresh = round fresh and r_fork = round fork in
      Alcotest.(check (float 0.0)) (what ^ ": round t0") r_fresh.P.t0 r_fork.P.t0;
      Alcotest.(check (list bool)) (what ^ ": affected feeds")
        (List.map r_fresh.P.affected fresh.Scenarios.feeds)
        (List.map r_fork.P.affected fork.Scenarios.feeds);
      Alcotest.(check (list string)) (what ^ ": collector log after the round")
        (collector_log fresh) (collector_log fork);
      check_same_world (what ^ ", after the round") fresh.Scenarios.bed fork.Scenarios.bed;
      (* The round changed that fork only: the next one starts from the
         converged baseline again. *)
      let again = Template.fork template in
      Alcotest.(check (list string)) (what ^ ": a second fork is untouched") converged
        (loc_ribs again.Scenarios.bed.Scenarios.net);
      Alcotest.(check (list string)) (what ^ ": a second fork's collector") baseline_log
        (collector_log again))
    oracle_worlds

(* View oracle: the trials that only read routes (accuracy, hubble) run
   on views of one converged world instead of forks of it. A view must
   give exactly what a fork gives, and what a trial does in its view must
   stay in that view. *)

let case_of (c : Experiments.Sec53_accuracy.case) =
  Format.asprintf "%a correct=%b direction=%b differs=%b" Lifeguard.Isolation.pp_diagnosis
    c.Experiments.Sec53_accuracy.diagnosis c.Experiments.Sec53_accuracy.correct
    c.Experiments.Sec53_accuracy.direction_correct c.Experiments.Sec53_accuracy.traceroute_differs

(* Every (vantage point, target) walk: its AS path and whether it
   delivered. *)
let walks (bed : Scenarios.testbed) =
  List.concat_map
    (fun src ->
      List.map
        (fun dst ->
          let walk =
            Dataplane.Forward.walk bed.Scenarios.net bed.Scenarios.failures ~src
              ~dst:(Dataplane.Forward.probe_address bed.Scenarios.net dst)
          in
          String.concat " "
            (List.map Asn.to_string (Dataplane.Forward.as_path_of_walk walk))
          ^
          match walk.Dataplane.Forward.outcome with
          | Dataplane.Forward.Delivered -> ""
          | Dataplane.Forward.Dropped _ | Dataplane.Forward.No_route _ | Dataplane.Forward.Loop
            ->
              " (lost)")
        bed.Scenarios.targets)
    bed.Scenarios.vantage_points

let test_view_oracle () =
  List.iter
    (fun (seed, ases) ->
      let what = Printf.sprintf "planetlab seed %d, %d ASes" seed ases in
      let build () = Scenarios.planetlab ~ases ~sites:24 ~infrastructure:Scenarios.Sites ~seed () in
      let world = build () in
      let template = Template.capture world in
      (* Accuracy's shards through views equal the same shards through
         per-shard forks of the same world, at any [jobs]. *)
      let shards = 3 and quota = 3 in
      let shard bed i =
        List.map case_of (Experiments.Sec53_accuracy.run_shard ~seed ~shard:i ~quota bed)
      in
      let via_forks = List.init shards (fun i -> shard (Template.fork template) i) in
      Alcotest.(check bool) (what ^ ": shards found failures") true
        (List.exists (fun cases -> cases <> []) via_forks);
      List.iter
        (fun jobs ->
          Alcotest.(check (list (list string)))
            (Printf.sprintf "%s: accuracy cases, views at jobs %d = forks" what jobs)
            via_forks
            (Experiments.Runner.run_views ~jobs world (List.init shards (fun i v -> shard v i))))
        [ 1; 2 ];
      (* The same failure, placed with the same draws through a view and
         in a fresh world, breaks the same walks; the world and every
         other view of it do not see it. *)
      let intact = walks world in
      (* On the first (vantage point, target) path with a transit hop. *)
      let inject (bed : Scenarios.testbed) =
        let rng = Prng.create ~seed in
        let shape =
          { Outage_gen.direction = Outage_gen.Forward; on_link = false; duration = 600.0 }
        in
        let pairs =
          List.concat_map
            (fun src -> List.map (fun dst -> (src, dst)) bed.Scenarios.targets)
            bed.Scenarios.vantage_points
        in
        match
          List.find_map
            (fun (src, dst) -> Scenarios.Placement.on_path rng bed ~src ~dst ~shape ())
            pairs
        with
        | Some placed ->
            Dataplane.Failure.inject bed.Scenarios.net bed.Scenarios.failures
              placed.Scenarios.Placement.spec;
            Asn.to_string placed.Scenarios.Placement.location
        | None -> "-"
      in
      let fresh = build () in
      let view = Scenarios.view world in
      Alcotest.(check string) (what ^ ": placement") (inject fresh) (inject view);
      let broken = walks fresh in
      Alcotest.(check bool) (what ^ ": the failure breaks a walk") true (broken <> intact);
      Alcotest.(check (list string)) (what ^ ": walks under the failure") broken (walks view);
      Alcotest.(check (list string)) (what ^ ": another view's walks") intact
        (walks (Scenarios.view world));
      Alcotest.(check (list string)) (what ^ ": the world's walks") intact (walks world))
    [ (1, 60); (7, 80) ]

(* Sec52_selective forks the scout (baseline converged, no
   infrastructure) and then announces one feed's infrastructure prefix. *)
let test_fork_selective () =
  let module P = Experiments.Poisoning in
  List.iter
    (fun (seed, ases) ->
      let scout = P.mux ~ases ~seed () in
      P.converge_baseline scout;
      let template = Template.capture scout in
      let feeds =
        List.filter
          (fun f -> not (List.exists (Asn.equal f) scout.Scenarios.providers))
          scout.Scenarios.feeds
      in
      List.iter
        (fun feed ->
          let what =
            Printf.sprintf "selective seed %d, %d ASes, feed %s" seed ases (Asn.to_string feed)
          in
          let fork = Experiments.Sec52_selective.feed_world template ~feed in
          (* Exactly the fresh world that runs the same steps in the same
             order ... *)
          let sequential = P.mux ~ases ~seed () in
          P.converge_baseline sequential;
          Dataplane.Forward.announce_infrastructure_for sequential.Scenarios.bed.Scenarios.net
            [ feed ];
          Bgp.Network.run_until_quiet ~timeout:36000.0 sequential.Scenarios.bed.Scenarios.net;
          check_same_world what sequential.Scenarios.bed fork.Scenarios.bed;
          (* ... and the same routes as the world the driver used to build
             per feed, which converges the infrastructure first. *)
          let fresh =
            Scenarios.bgpmux ~ases ~infrastructure:(Scenarios.Endpoints_only [ feed ]) ~seed ()
          in
          P.converge_baseline fresh;
          Alcotest.(check (list string)) (what ^ ": routes of a fresh Endpoints_only world")
            (loc_ribs ~route:routes_only fresh.Scenarios.bed.Scenarios.net)
            (loc_ribs ~route:routes_only fork.Scenarios.bed.Scenarios.net))
        (List.filteri (fun i _ -> i < 3) feeds))
    oracle_worlds

(* The converged 318-AS paper world (the BGP-Mux baseline the drivers
   fork per trial) stays small: every trial unmarshals it, and a larger
   world is a slower fork and a larger heap. The bound is the size the
   world reached once each update travelled through its session record
   and a route no longer kept its import time (202,110 B), plus 5%. *)
let test_world_size () =
  let module P = Experiments.Poisoning in
  let mux = P.mux ~ases:318 ~seed:42 () in
  P.converge_baseline mux;
  let bytes = String.length (Template.capture mux :> string) in
  Alcotest.(check bool) (Printf.sprintf "captured world is %d B, want <= 212215" bytes) true
    (bytes <= 212_215)

let prop_durations_deterministic =
  QCheck.Test.make ~name:"outage durations deterministic per seed" ~count:20
    QCheck.small_int (fun seed ->
      Outage_gen.durations ~seed ~n:50 () = Outage_gen.durations ~seed ~n:50 ())

let suite =
  [
    Alcotest.test_case "duration calibration (Fig. 1 anchors)" `Quick test_duration_calibration;
    Alcotest.test_case "duration survival (Fig. 5 anchor)" `Quick test_duration_survival;
    Alcotest.test_case "failure shape mix" `Quick test_shape_mix;
    Alcotest.test_case "planetlab scenario" `Quick test_planetlab_scenario;
    Alcotest.test_case "bgpmux scenario" `Quick test_bgpmux_scenario;
    Alcotest.test_case "case study initial state" `Quick test_case_study_initial_state;
    Alcotest.test_case "failure placement" `Quick test_placement;
    Alcotest.test_case "settle advances clock" `Quick test_settle_advances_clock;
    Alcotest.test_case "fork oracle: bgpmux with its baseline" `Quick test_fork_bgpmux;
    Alcotest.test_case "view oracle: accuracy and placement" `Quick test_view_oracle;
    Alcotest.test_case "fork oracle: selective's feed worlds" `Quick test_fork_selective;
    Alcotest.test_case "converged paper world size" `Quick test_world_size;
    QCheck_alcotest.to_alcotest prop_durations_deterministic;
  ]
