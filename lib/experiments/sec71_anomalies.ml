open Net
open Topology

type result = {
  relaxed_ases : int;
  single_poison_ineffective : int;
  double_poison_effective : int;
  tier1_poison_via_filter_reached : int;
  tier1_poison_via_clean_reached : int;
  feeds : int;
}

let production = Workloads.Scenarios.production_prefix

(* Share of tier-2/3 transit ASes that relax loop detection. *)
let relaxed_fraction = 0.3

type world = {
  w_net : Bgp.Network.t;
  w_origin : Asn.t;
  w_relaxed : Asn.t list;
  w_feeds : Asn.t list;
  w_filtering_provider : Asn.t;
  w_clean_provider : Asn.t;
  w_tier1 : Asn.t;
}

(* Deterministic world constructor: the PRNG draws (topology seed,
   relaxed sample, feed sample) happen in a fixed order before any
   announcement, so every call with the same arguments yields the same
   graph, quirk assignment and feed list. Everything measured here is
   control-plane state of the production prefix, so no infrastructure
   prefixes are announced. *)
let build_world ~ases ~seed =
  let rng = Prng.create ~seed in
  let gen = Topo_gen.generate ~params:(Topo_gen.sized ases) ~seed:(Prng.int rng 1000000) () in
  let graph = gen.Topo_gen.graph in
  let origin = Asn.of_int 64500 in
  As_graph.add_as graph ~tier:4 origin;
  (* A Cogent-like provider: it peers with every tier-1 (so a customer
     path naming a tier-1 trips its filter) and sells transit to the
     origin. The clean provider is an ordinary tier-2. *)
  let filtering_provider = Asn.of_int 64174 in
  As_graph.add_as graph ~tier:1 ~routers:3 filtering_provider;
  List.iter
    (fun t1 -> As_graph.add_link graph ~a:filtering_provider ~b:t1 ~rel:Relationship.Peer)
    gen.Topo_gen.tier1;
  let clean_provider = List.hd gen.Topo_gen.tier2 in
  let providers = [ filtering_provider; clean_provider ] in
  List.iter
    (fun p -> As_graph.add_link graph ~a:origin ~b:p ~rel:Relationship.Provider)
    providers;
  (* Quirk assignment: a sample of tier-2/3 transits relax loop detection
     to allow one occurrence of their own ASN; the first provider filters
     customer paths containing its peers. *)
  let transit = Array.of_list (gen.Topo_gen.tier2 @ gen.Topo_gen.tier3) in
  let relaxed =
    Prng.sample_without_replacement rng
      (int_of_float (relaxed_fraction *. float_of_int (Array.length transit)))
      transit
    |> Array.to_list
    |> List.filter (fun a -> not (List.exists (Asn.equal a) providers))
  in
  let relaxed_set = Asn.Set.of_list relaxed in
  let config_of asn_ =
    let base = { Bgp.Policy.default with Bgp.Policy.pref_jitter = 8 } in
    if Asn.Set.mem asn_ relaxed_set then { base with Bgp.Policy.loop_limit = 2 }
    else if Asn.equal asn_ filtering_provider then
      { base with Bgp.Policy.reject_peers_in_customer_paths = true }
    else base
  in
  let engine = Sim.Engine.create () in
  let net = Bgp.Network.create ~engine ~graph ~config_of ~mrai:10.0 () in
  let feeds = Array.to_list (Prng.sample_without_replacement rng 30 transit) in
  {
    w_net = net;
    w_origin = origin;
    w_relaxed = relaxed;
    w_feeds = feeds;
    w_filtering_provider = filtering_provider;
    w_clean_provider = clean_provider;
    w_tier1 = List.hd gen.Topo_gen.tier1;
  }

let baseline w =
  Bgp.Network.announce w.w_net ~origin:w.w_origin ~prefix:production
    ~per_neighbor:(fun _ -> Some (Bgp.As_path.prepended ~origin:w.w_origin ~copies:3))
    ();
  Bgp.Network.run_until_quiet w.w_net

(* Loop-limit quirk for one relaxed AS, in a fresh world: does a single
   poison leave it routed, and does doubling the ASN then strip the
   route? Returns [None] when the AS holds no baseline route. *)
let loop_trial ~ases ~seed target () =
  let w = build_world ~ases ~seed in
  baseline w;
  let net = w.w_net in
  if Option.is_none (Bgp.Network.best_route net target production) then None
  else begin
    Bgp.Network.announce net ~origin:w.w_origin ~prefix:production
      ~per_neighbor:(fun _ -> Some (Bgp.As_path.poisoned ~origin:w.w_origin ~poison:target))
      ();
    Bgp.Network.run_until_quiet net;
    let survived = Option.is_some (Bgp.Network.best_route net target production) in
    Bgp.Network.announce net ~origin:w.w_origin ~prefix:production
      ~per_neighbor:(fun _ ->
        Some (Bgp.As_path.poisoned_multi ~origin:w.w_origin ~poisons:[ target; target ]))
      ();
    Bgp.Network.run_until_quiet net;
    let doubled = survived && Option.is_none (Bgp.Network.best_route net target production) in
    Some (survived, doubled)
  end

(* Cogent-style filtering: poison the tier-1 selectively via one provider
   (fresh world) and count feeds still holding any route. *)
let tier1_trial ~ases ~seed ~via_filtering () =
  let w = build_world ~ases ~seed in
  baseline w;
  let net = w.w_net in
  let via = if via_filtering then w.w_filtering_provider else w.w_clean_provider in
  Bgp.Network.announce net ~origin:w.w_origin ~prefix:production
    ~per_neighbor:(fun n ->
      if Asn.equal n via then Some (Bgp.As_path.poisoned ~origin:w.w_origin ~poison:w.w_tier1)
      else None)
    ();
  Bgp.Network.run_until_quiet net;
  List.length
    (List.filter (fun f -> Option.is_some (Bgp.Network.best_route net f production)) w.w_feeds)

type outcome = Loop of (bool * bool) option | Tier1 of int

let run ~ases ~jobs ~seed () =
  (* A throwaway scout world (no announcements, so cheap) fixes the
     relaxed and feed samples; the trial list depends only on them. *)
  let scout = build_world ~ases ~seed in
  let relaxed = scout.w_relaxed in
  let feeds = scout.w_feeds in
  let loops = List.map (fun target () -> Loop (loop_trial ~ases ~seed target ())) relaxed in
  let tier1 via_filtering () = Tier1 (tier1_trial ~ases ~seed ~via_filtering ()) in
  match Runner.run_arms ~jobs [ loops; [ tier1 true; tier1 false ] ] with
  | [ loops; [ Tier1 via_filter; Tier1 via_clean ] ] ->
      let relevant = ref 0 and single_ineffective = ref 0 and double_effective = ref 0 in
      List.iter
        (function
          | Loop (Some (survived, doubled)) ->
              incr relevant;
              if survived then incr single_ineffective;
              if doubled then incr double_effective
          | Loop None | Tier1 _ -> ())
        loops;
      {
        relaxed_ases = !relevant;
        single_poison_ineffective = !single_ineffective;
        double_poison_effective = !double_effective;
        tier1_poison_via_filter_reached = via_filter;
        tier1_poison_via_clean_reached = via_clean;
        feeds = List.length feeds;
      }
  | _ -> assert false

let to_tables r =
  let t =
    Stats.Table.create ~title:"Sec 7.1 poisoning anomalies (paper vs measured)"
      ~columns:[ "metric"; "paper"; "measured" ]
  in
  Stats.Table.add_rows t
    [
      [ "loop-relaxed transit ASes probed"; "-"; Stats.Table.cell_int r.relaxed_ases ];
      [
        "single poison shrugged off by them";
        "yes (AS286-style)";
        Printf.sprintf "%d/%d" r.single_poison_ineffective r.relaxed_ases;
      ];
      [
        "doubled ASN poisons them after all";
        "yes";
        Printf.sprintf "%d/%d" r.double_poison_effective r.single_poison_ineffective;
      ];
      [
        "tier-1 poison via filtering provider: feeds w/ route";
        "did not propagate widely";
        Printf.sprintf "%d/%d" r.tier1_poison_via_filter_reached r.feeds;
      ];
      [
        "tier-1 poison via clean provider: feeds w/ route";
        "76% of peers found paths";
        Printf.sprintf "%d/%d" r.tier1_poison_via_clean_reached r.feeds;
      ];
    ];
  [ t ]
