open Net

type params = {
  tier1 : int;
  tier2 : int;
  tier3 : int;
  stubs : int;
  tier2_peer_prob : float;
  tier3_peer_prob : float;
  multihoming : (float * int) list;
}

(* A ~320-AS Internet: 8 tier-1s, 40 tier-2s, 70 tier-3s, 200 stubs —
   large enough for stable poisoning statistics, small enough that a full
   evaluation run completes in seconds. *)
let default_params =
  {
    tier1 = 8;
    tier2 = 40;
    tier3 = 70;
    stubs = 200;
    tier2_peer_prob = 0.30;
    tier3_peer_prob = 0.10;
    multihoming = [ (0.30, 1); (0.45, 2); (0.25, 3) ];
  }

let min_ases = 20

let sized n =
  if n < min_ases then
    invalid_arg (Printf.sprintf "Topo_gen.sized: need at least %d ASes" min_ases);
  let scale part = max 1 (part * n / 318) in
  {
    default_params with
    tier1 = max 3 (scale 8);
    tier2 = scale 40;
    tier3 = scale 70;
    stubs = scale 200;
  }

type t = {
  graph : As_graph.t;
  tier1 : Asn.t list;
  tier2 : Asn.t list;
  tier3 : Asn.t list;
  stub_list : Asn.t list;
}

let sample_multihoming rng dist =
  let u = Prng.float rng in
  let rec go acc = function
    | [] -> 1
    | [ (_, k) ] -> k
    | (w, k) :: rest ->
        let acc = acc +. w in
        if u < acc then k else go acc rest
  in
  go 0.0 dist

(* Weighted provider choice: higher-degree transit ASes attract more
   customers, reproducing the power-law degree skew of the real AS graph
   (preferential attachment). *)
let pick_providers rng graph pool k =
  let pool = Array.of_list pool in
  let weights = Array.map (fun asn -> float_of_int (1 + As_graph.degree graph asn)) pool in
  let chosen = ref Asn.Set.empty in
  let total = ref (Array.fold_left ( +. ) 0.0 weights) in
  let k = min k (Array.length pool) in
  while Asn.Set.cardinal !chosen < k do
    let target = Prng.float rng *. !total in
    let acc = ref 0.0 in
    let found = ref None in
    (try
       Array.iteri
         (fun i _asn ->
           if weights.(i) > 0.0 then begin
             acc := !acc +. weights.(i);
             if !acc >= target then begin
               found := Some i;
               raise Exit
             end
           end)
         pool
     with Exit -> ());
    match !found with
    | None -> chosen := Asn.Set.add pool.(0) !chosen
    | Some i ->
        chosen := Asn.Set.add pool.(i) !chosen;
        total := !total -. weights.(i);
        weights.(i) <- 0.0
  done;
  Asn.Set.elements !chosen

let generate ?(params = default_params) ~seed () =
  let rng = Prng.create ~seed in
  let graph = As_graph.create () in
  let next_asn = ref 100 in
  let fresh tier routers =
    let asn = Asn.of_int !next_asn in
    incr next_asn;
    As_graph.add_as graph ~tier ~routers asn;
    asn
  in
  let tier1 = List.init params.tier1 (fun _ -> fresh 1 4) in
  let tier2 = List.init params.tier2 (fun _ -> fresh 2 3) in
  let tier3 = List.init params.tier3 (fun _ -> fresh 3 2) in
  let stub_list = List.init params.stubs (fun _ -> fresh 4 1) in
  (* Tier-1: full peering clique. *)
  let rec clique = function
    | [] -> ()
    | a :: rest ->
        List.iter (fun b -> As_graph.add_link graph ~a ~b ~rel:Relationship.Peer) rest;
        clique rest
  in
  clique tier1;
  (* Tier-2: one or two tier-1 providers, lateral peering. *)
  List.iter
    (fun asn ->
      let nproviders = 1 + Prng.int rng 2 in
      List.iter
        (fun p -> As_graph.add_link graph ~a:asn ~b:p ~rel:Relationship.Provider)
        (pick_providers rng graph tier1 nproviders))
    tier2;
  let maybe_peer prob a b =
    if
      (not (Asn.equal a b))
      && Option.is_none (As_graph.relationship graph ~a ~b)
      && Prng.bernoulli rng ~p:prob
    then As_graph.add_link graph ~a ~b ~rel:Relationship.Peer
  in
  let rec pairwise f = function
    | [] -> ()
    | a :: rest ->
        List.iter (f a) rest;
        pairwise f rest
  in
  pairwise (maybe_peer params.tier2_peer_prob) tier2;
  (* Tier-3: providers drawn mostly from tier-2, sometimes tier-1. *)
  List.iter
    (fun asn ->
      let nproviders = 1 + Prng.int rng 2 in
      let pool = if Prng.bernoulli rng ~p:0.15 then tier1 @ tier2 else tier2 in
      List.iter
        (fun p -> As_graph.add_link graph ~a:asn ~b:p ~rel:Relationship.Provider)
        (pick_providers rng graph pool nproviders))
    tier3;
  pairwise (maybe_peer params.tier3_peer_prob) tier3;
  (* Stubs: multi-homed onto tier-2/3 per the configured distribution. *)
  List.iter
    (fun asn ->
      let k = sample_multihoming rng params.multihoming in
      let pool = tier2 @ tier3 in
      List.iter
        (fun p -> As_graph.add_link graph ~a:asn ~b:p ~rel:Relationship.Provider)
        (pick_providers rng graph pool k))
    stub_list;
  { graph; tier1; tier2; tier3; stub_list }

let transit_ases t = t.tier1 @ t.tier2 @ t.tier3
