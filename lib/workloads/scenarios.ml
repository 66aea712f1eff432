open Net
open Topology

type testbed = {
  engine : Sim.Engine.t;
  graph : As_graph.t;
  gen : Topo_gen.t option;
  net : Bgp.Network.t;
  failures : Dataplane.Failure.set;
  probe : Dataplane.Probe.env;
  vantage_points : Asn.t list;
  targets : Asn.t list;
}

(* Synthetic testbeds run with per-neighbor preference jitter so that
   forward and reverse paths are asymmetric, as on the real Internet;
   hand-built scenario graphs (the case study) keep policy exact. *)
let jittered_config _ = { Bgp.Policy.default with Bgp.Policy.pref_jitter = 8 }

type infrastructure = All | Endpoints_only of Asn.t list | No_infrastructure

let testbed_of_graph ?(mrai = 30.0) ?config_of ?fib_install_delay ?gen
    ?(infrastructure = All) ?shards ?record_barriers ~vantage_points ~targets graph =
  let engine = Sim.Engine.create () in
  let net =
    Bgp.Network.create ~engine ~graph ?config_of ~mrai ?fib_install_delay ?shards
      ?record_barriers ()
  in
  let failures = Dataplane.Failure.create () in
  let probe = Dataplane.Probe.env net failures in
  (* Converging the full per-AS infrastructure announcement is ~99% of
     testbed construction cost; per-trial worlds announce only what they
     will probe between (or nothing for control-plane-only trials). *)
  (match infrastructure with
  | All -> Dataplane.Forward.announce_infrastructure net
  | Endpoints_only ases -> Dataplane.Forward.announce_infrastructure_for net ases
  | No_infrastructure -> ());
  (match infrastructure with
  | No_infrastructure -> ()
  | All | Endpoints_only _ -> Bgp.Network.run_until_quiet ~timeout:36000.0 net);
  { engine; graph; gen; net; failures; probe; vantage_points; targets }

let settle bed ~seconds =
  let engine = bed.engine in
  let wake = Sim.Engine.now engine +. seconds in
  (* [run ~until] lands on [wake] by itself; the no-op wake event stays
     so that the event count ([sim.events]) does not move. *)
  Sim.Engine.schedule engine ~at:wake ignore;
  Sim.Engine.run ~until:wake engine

(* A view shares everything of the world that a trial only reads (the
   graph, the network and their generator output) and owns everything it
   writes: the failure set, the probe env (memo and probe count) and the
   engine its events run on, started at the world's clock. *)
let view world =
  let engine = Sim.Engine.create ~now:(Sim.Engine.now world.engine) () in
  let failures = Dataplane.Failure.create () in
  { world with engine; failures; probe = Dataplane.Probe.env ~engine world.net failures }

type planetlab_infrastructure = Sites | Of of infrastructure

let planetlab ?(ases = 318) ?(sites = 20) ?(target_count = 25) ?mrai ?infrastructure ~seed
    () =
  let rng = Prng.create ~seed in
  let gen = Topo_gen.generate ~params:(Topo_gen.sized ases) ~seed:(Prng.int rng 1000000) () in
  let graph = gen.Topo_gen.graph in
  let stubs = Array.of_list gen.Topo_gen.stub_list in
  let vantage_points =
    Array.to_list (Prng.sample_without_replacement rng sites stubs)
  in
  (* Targets: the highest-degree transit ASes, as in the EC2 study. *)
  let transits =
    Topo_gen.transit_ases gen
    |> List.map (fun a -> (As_graph.degree graph a, a))
    |> List.sort (fun (d1, a1) (d2, a2) ->
           match Int.compare d2 d1 with
           | 0 -> Asn.compare a1 a2
           | c -> c)
    |> List.map snd
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  let targets = take target_count transits in
  let infrastructure =
    match infrastructure with
    | Some Sites -> Some (Endpoints_only (vantage_points @ targets))
    | Some (Of i) -> Some i
    | None -> None
  in
  testbed_of_graph ?mrai ~config_of:jittered_config ~gen ?infrastructure ~vantage_points
    ~targets graph

type mux = {
  bed : testbed;
  origin : Asn.t;
  providers : Asn.t list;
  plan : Lifeguard.Remediate.plan;
  collector : Bgp.Network.Collector.t;
  feeds : Asn.t list;
}

let production_prefix = Prefix.of_string_exn "203.0.113.0/24"
let sentinel_prefix = Prefix.of_string_exn "203.0.112.0/23"

(* The BGP-Mux origin's distinct transit providers, and the route
   collector's peers. *)
let provider_count = 5
let feed_count = 40

let bgpmux ?(ases = 318) ?mrai ?fib_install_delay ?infrastructure ?shards
    ?record_barriers ~seed () =
  let rng = Prng.create ~seed in
  let gen = Topo_gen.generate ~params:(Topo_gen.sized ases) ~seed:(Prng.int rng 1000000) () in
  let graph = gen.Topo_gen.graph in
  (* The BGP-Mux AS: a fresh stub attached to distinct tier-2 providers
     ("universities"). *)
  let origin = Asn.of_int 64500 in
  As_graph.add_as graph ~tier:4 origin;
  let providers =
    Array.to_list
      (Prng.sample_without_replacement rng provider_count
         (Array.of_list gen.Topo_gen.tier2))
  in
  List.iter
    (fun p -> As_graph.add_link graph ~a:origin ~b:p ~rel:Relationship.Provider)
    providers;
  (* Feeds: collector peers are predominantly transit networks in
     reality (RouteViews/RIPE peers are ISPs), with a sprinkling of
     well-connected edges. *)
  let transit_pool =
    List.filter (fun a -> not (Asn.equal a origin)) (Topo_gen.transit_ases gen)
  in
  let stub_pool =
    List.filter (fun a -> not (Asn.equal a origin)) gen.Topo_gen.stub_list
  in
  let n_transit = feed_count * 7 / 10 in
  let feeds =
    Array.to_list
      (Prng.sample_without_replacement rng n_transit (Array.of_list transit_pool))
    @ Array.to_list
        (Prng.sample_without_replacement rng (feed_count - n_transit)
           (Array.of_list stub_pool))
  in
  let vantage_points =
    Array.to_list
      (Prng.sample_without_replacement rng 20 (Array.of_list gen.Topo_gen.stub_list))
  in
  let bed =
    testbed_of_graph ?mrai ~config_of:jittered_config ?fib_install_delay ~gen ?infrastructure
      ?shards ?record_barriers ~vantage_points ~targets:[] graph
  in
  let collector = Bgp.Network.Collector.attach bed.net ~name:"collector" ~peers:feeds in
  let plan =
    Lifeguard.Remediate.plan ~sentinel:sentinel_prefix ~origin ~production:production_prefix ()
  in
  { bed; origin; providers; plan; collector; feeds }

let harvest_on_path_ases mux =
  let tier1s =
    match mux.bed.gen with
    | Some gen -> gen.Topo_gen.tier1
    | None -> []
  in
  let excluded =
    Asn.Set.of_list ((mux.origin :: mux.providers) @ tier1s)
  in
  let on_path =
    List.fold_left
      (fun acc feed ->
        match Bgp.Network.best_route mux.bed.net feed production_prefix with
        | None -> acc
        | Some entry ->
            Bgp.As_path.fold
              (fun acc a -> if Asn.Set.mem a excluded then acc else Asn.Set.add a acc)
              acc entry.Bgp.Route.ann.Bgp.Route.path)
      Asn.Set.empty mux.feeds
  in
  (* Only transit ASes are worth poisoning; stubs cannot be on transit
     paths anyway but the origin's own ASN appears in every path. *)
  Asn.Set.elements (Asn.Set.remove mux.origin on_path)

module Case_study = struct
  type t = {
    bed : testbed;
    origin : Asn.t;
    uwisc : Asn.t;
    wiscnet : Asn.t;
    internet2 : Asn.t;
    apan : Asn.t;
    tanet : Asn.t;
    taiwan : Asn.t;
    twgate : Asn.t;
    uunet : Asn.t;
    level3 : Asn.t;
    plan : Lifeguard.Remediate.plan;
  }

  let build () =
    let g = As_graph.create () in
    let origin = Asn.of_int 64500 in
    let uwisc = Asn.of_int 59 in
    let wiscnet = Asn.of_int 2381 in
    let internet2 = Asn.of_int 11537 in
    let apan = Asn.of_int 7660 in
    let tanet = Asn.of_int 1659 in
    let taiwan = Asn.of_int 17716 in
    let twgate = Asn.of_int 9505 in
    let uunet = Asn.of_int 701 in
    let level3 = Asn.of_int 3356 in
    As_graph.add_as g ~tier:4 origin;
    As_graph.add_as g ~tier:3 ~routers:2 uwisc;
    As_graph.add_as g ~tier:2 ~routers:2 wiscnet;
    As_graph.add_as g ~tier:1 ~routers:3 internet2;
    As_graph.add_as g ~tier:2 ~routers:2 apan;
    As_graph.add_as g ~tier:2 ~routers:2 tanet;
    As_graph.add_as g ~tier:4 taiwan;
    As_graph.add_as g ~tier:2 ~routers:2 twgate;
    As_graph.add_as g ~tier:1 ~routers:3 uunet;
    As_graph.add_as g ~tier:1 ~routers:3 level3;
    (* Academic chain: taiwan -> tanet -> apan -> I2 -> wiscnet -> uwisc. *)
    As_graph.add_link g ~a:origin ~b:uwisc ~rel:Relationship.Provider;
    As_graph.add_link g ~a:uwisc ~b:wiscnet ~rel:Relationship.Provider;
    As_graph.add_link g ~a:wiscnet ~b:internet2 ~rel:Relationship.Provider;
    As_graph.add_link g ~a:apan ~b:internet2 ~rel:Relationship.Peer;
    As_graph.add_link g ~a:tanet ~b:apan ~rel:Relationship.Provider;
    As_graph.add_link g ~a:taiwan ~b:tanet ~rel:Relationship.Provider;
    (* Commercial chain: taiwan -> twgate -> uunet -> level3 -> uwisc.
       One hop shorter, so the Taiwanese site prefers it. *)
    As_graph.add_link g ~a:taiwan ~b:twgate ~rel:Relationship.Provider;
    As_graph.add_link g ~a:twgate ~b:uunet ~rel:Relationship.Provider;
    As_graph.add_link g ~a:uunet ~b:level3 ~rel:Relationship.Peer;
    As_graph.add_link g ~a:uwisc ~b:level3 ~rel:Relationship.Provider;
    (* A second LIFEGUARD vantage point in a distinct edge network. *)
    let vp2 = Asn.of_int 64501 in
    As_graph.add_as g ~tier:4 vp2;
    As_graph.add_link g ~a:vp2 ~b:level3 ~rel:Relationship.Provider;
    let bed =
      testbed_of_graph ~mrai:5.0 ~vantage_points:[ vp2 ] ~targets:[ taiwan ] g
    in
    let plan =
      Lifeguard.Remediate.plan ~sentinel:sentinel_prefix ~origin
        ~production:production_prefix ()
    in
    {
      bed;
      origin;
      uwisc;
      wiscnet;
      internet2;
      apan;
      tanet;
      taiwan;
      twgate;
      uunet;
      level3;
      plan;
    }

  let uunet_failure t =
    Dataplane.Failure.spec ~mode:Dataplane.Failure.Data_only ~toward:sentinel_prefix
      (Dataplane.Failure.Node t.uunet)
end

module Placement = struct
  type placed = {
    spec : Dataplane.Failure.spec;
    location : Asn.t;
    far_side : Asn.t option;
  }

  let transit_hops bed ~from_ ~to_ =
    let walk =
      Dataplane.Forward.walk bed.net bed.failures ~src:from_
        ~dst:(Dataplane.Forward.probe_address bed.net to_)
    in
    let path = Dataplane.Forward.as_path_of_walk walk in
    (* Interior hops only: breaking an endpoint is not a routable-around
       transit failure. *)
    match path with
    | [] | [ _ ] | [ _; _ ] -> []
    | _ :: interior -> List.filteri (fun i _ -> i < List.length interior - 1) interior

  let on_path rng bed ?toward_src ~src ~dst ~shape () =
    let toward_src =
      match toward_src with
      | Some prefix -> prefix
      | None -> Dataplane.Forward.infrastructure_prefix src
    in
    let toward_dst = Dataplane.Forward.infrastructure_prefix dst in
    let direction = shape.Outage_gen.direction in
    let hops =
      match direction with
      | Outage_gen.Reverse -> transit_hops bed ~from_:dst ~to_:src
      | Outage_gen.Forward | Outage_gen.Bidirectional -> transit_hops bed ~from_:src ~to_:dst
    in
    match hops with
    | [] -> None
    | _ ->
        let idx = Prng.int rng (List.length hops) in
        let location = List.nth hops idx in
        let toward =
          match direction with
          | Outage_gen.Reverse -> Some toward_src
          | Outage_gen.Forward -> Some toward_dst
          | Outage_gen.Bidirectional -> None
        in
        let mk scope = Dataplane.Failure.spec ?toward scope in
        if shape.Outage_gen.on_link && idx + 1 < List.length hops then begin
          let far = List.nth hops (idx + 1) in
          Some
            {
              spec = mk (Dataplane.Failure.Link (location, far));
              location;
              far_side = Some far;
            }
        end
        else
          Some { spec = mk (Dataplane.Failure.Node location); location; far_side = None }
end
