(* System-level invariants checked over randomized topologies and
   announcement sequences: the properties BGP must hold for LIFEGUARD's
   reasoning (and the paper's arguments) to be sound. *)

open Net
open Topology

let production = Prefix.of_string_exn "203.0.113.0/24"

(* A converged world over a random generated topology with a random
   multi-homed origin and a few random announcement events applied. *)
let build_world seed =
  let rng = Prng.create ~seed in
  let gen = Topo_gen.generate ~params:(Topo_gen.sized 60) ~seed:(Prng.int rng 100000) () in
  let graph = gen.Topo_gen.graph in
  let origin = Asn.of_int 64500 in
  As_graph.add_as graph ~tier:4 origin;
  let providers =
    Array.to_list
      (Prng.sample_without_replacement rng 2 (Array.of_list gen.Topo_gen.tier2))
  in
  List.iter
    (fun p -> As_graph.add_link graph ~a:origin ~b:p ~rel:Relationship.Provider)
    providers;
  let engine = Sim.Engine.create () in
  let net = Bgp.Network.create ~engine ~graph ~mrai:10.0 () in
  Bgp.Network.announce net ~origin ~prefix:production ();
  Bgp.Network.run_until_quiet net;
  (* A few random re-announcement events: prepend, poison a transit,
     selective advertisement, withdraw+re-announce. *)
  let transits = Array.of_list (Topo_gen.transit_ases gen) in
  for _ = 1 to 3 do
    (match Prng.int rng 4 with
    | 0 ->
        Bgp.Network.announce net ~origin ~prefix:production
          ~per_neighbor:(fun _ ->
            Some (Bgp.As_path.prepended ~origin ~copies:(1 + Prng.int rng 3)))
          ()
    | 1 ->
        let poison = Prng.pick rng transits in
        Bgp.Network.announce net ~origin ~prefix:production
          ~per_neighbor:(fun _ -> Some (Bgp.As_path.poisoned ~origin ~poison))
          ()
    | 2 ->
        let keep = Prng.pick_list rng providers in
        Bgp.Network.announce net ~origin ~prefix:production
          ~per_neighbor:(fun n ->
            if Asn.equal n keep then Some (Bgp.As_path.plain ~origin) else None)
          ()
    | _ ->
        Bgp.Network.withdraw net ~origin ~prefix:production;
        Bgp.Network.run_until_quiet net;
        Bgp.Network.announce net ~origin ~prefix:production ());
    Bgp.Network.run_until_quiet net
  done;
  (net, graph, origin)

let for_all_routes net graph f =
  List.for_all
    (fun asn ->
      match Bgp.Network.best_route net asn production with
      | Some entry -> f asn entry
      | None -> true)
    (As_graph.as_list graph)

let prop_no_self_in_traversed =
  QCheck.Test.make ~name:"loc-RIB paths never traverse the holder (loop freedom)" ~count:12
    QCheck.(int_range 0 5000)
    (fun seed ->
      let net, graph, origin = build_world seed in
      for_all_routes net graph (fun asn entry ->
          let traversed =
            Bgp.As_path.traversed ~origin entry.Bgp.Route.ann.Bgp.Route.path
          in
          not (Bgp.As_path.contains asn traversed)))

let prop_paths_valley_free =
  QCheck.Test.make ~name:"converged loc-RIB paths are valley-free" ~count:12
    QCheck.(int_range 0 5000)
    (fun seed ->
      let net, graph, origin = build_world seed in
      for_all_routes net graph (fun asn entry ->
          (* The full routed path is holder :: traversed-portion :: origin;
             origination decoration (prepends/poison) is skipped since it
             does not correspond to links, and the origin's own local
             route has no links at all. *)
          Asn.equal asn origin
          ||
          let traversed =
            Bgp.As_path.to_list
              (Bgp.As_path.traversed ~origin entry.Bgp.Route.ann.Bgp.Route.path)
          in
          let path = (asn :: traversed) @ [ origin ] in
          Splice.valley_free graph path))

let prop_next_hop_matches_path =
  QCheck.Test.make ~name:"loc-RIB next hop is the first path element" ~count:12
    QCheck.(int_range 0 5000)
    (fun seed ->
      let net, graph, _origin = build_world seed in
      for_all_routes net graph (fun _asn entry ->
          match Bgp.As_path.first_hop entry.Bgp.Route.ann.Bgp.Route.path with
          | Some first -> Asn.equal first entry.Bgp.Route.neighbor
          | None -> false))

let prop_fib_matches_loc_rib =
  QCheck.Test.make ~name:"FIB agrees with loc-RIB when installs are atomic" ~count:12
    QCheck.(int_range 0 5000)
    (fun seed ->
      let net, graph, _origin = build_world seed in
      let address = Prefix.nth_address production 1 in
      List.for_all
        (fun asn ->
          let rib = Bgp.Network.best_route net asn production in
          let fib = Bgp.Network.fib_lookup net asn address in
          match (rib, fib) with
          | Some entry, Some (p, fentry) ->
              Prefix.equal p production
              && Asn.equal entry.Bgp.Route.neighbor fentry.Bgp.Route.neighbor
          | None, None -> true
          | None, Some (p, _) ->
              (* Only a less specific may answer when the RIB lost the
                 production route. *)
              not (Prefix.equal p production)
          | Some _, None -> false)
        (As_graph.as_list graph))

let prop_forwarding_follows_routes =
  QCheck.Test.make ~name:"data-plane walks terminate (no forwarding loops at rest)" ~count:12
    QCheck.(int_range 0 5000)
    (fun seed ->
      let net, graph, _origin = build_world seed in
      let failures = Dataplane.Failure.create () in
      let address = Prefix.nth_address production 1 in
      List.for_all
        (fun asn ->
          let walk = Dataplane.Forward.walk net failures ~src:asn ~dst:address in
          match walk.Dataplane.Forward.outcome with
          | Dataplane.Forward.Delivered | Dataplane.Forward.No_route _ -> true
          | Dataplane.Forward.Loop | Dataplane.Forward.Dropped _ -> false)
        (As_graph.as_list graph))

let prop_poison_and_unpoison_roundtrip =
  QCheck.Test.make ~name:"poison then unpoison restores every route" ~count:10
    QCheck.(int_range 0 5000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let gen = Topo_gen.generate ~params:(Topo_gen.sized 60) ~seed:(Prng.int rng 100000) () in
      let graph = gen.Topo_gen.graph in
      let origin = Asn.of_int 64500 in
      As_graph.add_as graph ~tier:4 origin;
      List.iter
        (fun p -> As_graph.add_link graph ~a:origin ~b:p ~rel:Relationship.Provider)
        (Array.to_list
           (Prng.sample_without_replacement rng 2 (Array.of_list gen.Topo_gen.tier2)));
      let engine = Sim.Engine.create () in
      let net = Bgp.Network.create ~engine ~graph ~mrai:10.0 () in
      let plan = Lifeguard.Remediate.plan ~origin ~production () in
      Lifeguard.Remediate.announce_baseline net plan;
      Bgp.Network.run_until_quiet net;
      let snapshot () =
        List.filter_map
          (fun asn ->
            match Bgp.Network.best_route net asn production with
            | Some e -> Some (asn, e.Bgp.Route.ann.Bgp.Route.path)
            | None -> None)
          (As_graph.as_list graph)
      in
      let before = snapshot () in
      let target = Prng.pick rng (Array.of_list (Topo_gen.transit_ases gen)) in
      Lifeguard.Remediate.poison net plan ~target;
      Bgp.Network.run_until_quiet net;
      Lifeguard.Remediate.unpoison net plan;
      Bgp.Network.run_until_quiet net;
      let after = snapshot () in
      List.length before = List.length after
      && List.for_all2
           (fun (a1, p1) (a2, p2) -> Asn.equal a1 a2 && Bgp.As_path.equal p1 p2)
           before after)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_no_self_in_traversed;
    QCheck_alcotest.to_alcotest prop_paths_valley_free;
    QCheck_alcotest.to_alcotest prop_next_hop_matches_path;
    QCheck_alcotest.to_alcotest prop_fib_matches_loc_rib;
    QCheck_alcotest.to_alcotest prop_forwarding_follows_routes;
    QCheck_alcotest.to_alcotest prop_poison_and_unpoison_roundtrip;
  ]
