open Net

type how = Spoofed_record_route | Timestamp | Assumed_symmetric | Confirmed_cached

type hop = { asn : Asn.t; how : how }

type measurement = {
  path : hop list;
  complete : bool;
  probes_used : int;
  assumed_hops : int;
}

(* Fraction of routers answering record-route, fraction answering
   timestamp queries, and the hop budget of record-route's slots. *)
let rr_support = 0.75
let ts_support = 0.55
let rr_range = 8

type t = { env : Dataplane.Probe.env; vantage_points : Asn.t list }

let create ~env ~vantage_points () = { env; vantage_points }

(* Option support is a stable property of a router: derive it from an
   explicit integer mix of its address so measurements are reproducible
   and cannot drift with the runtime's generic [Hashtbl.hash]. *)
let support_hash t asn salt =
  let address = Dataplane.Forward.probe_address t.env.Dataplane.Probe.net asn in
  let z = (Ipv4.signed address * 0x9E3779B1) lxor (salt * 0x85EBCA6B) in
  let z = z lxor (z lsr 16) in
  float_of_int (z land 0xFFFF) /. 65536.0

(* Whether an AS's border router answers record-route (deterministic per
   router address): three routers in four do. *)
let supports_rr t asn = support_hash t asn 0x5252 < rr_support
let supports_ts t asn = support_hash t asn 0x5453 < ts_support

let spend t n = Dataplane.Probe.charge t.env n

(* The data-plane truth: the AS-level path a packet from [hop] takes
   toward [to_ip], as a list with [hop] first. *)
let actual_path_from t hop ~to_ip =
  let walk =
    Dataplane.Forward.walk t.env.Dataplane.Probe.net t.env.Dataplane.Probe.failures ~src:hop
      ~dst:to_ip
  in
  (Dataplane.Forward.as_path_of_walk walk, walk.Dataplane.Forward.outcome)

let next_hop_of t hop ~to_ip =
  match actual_path_from t hop ~to_ip with
  | _ :: next :: _, _ -> Some next
  | _, _ -> None

let hop_distance t ~from_ ~to_asn =
  let address = Dataplane.Forward.probe_address t.env.Dataplane.Probe.net to_asn in
  let walk =
    Dataplane.Forward.walk t.env.Dataplane.Probe.net t.env.Dataplane.Probe.failures ~src:from_
      ~dst:address
  in
  match walk.Dataplane.Forward.outcome with
  | Dataplane.Forward.Delivered ->
      Some (List.length (Dataplane.Forward.as_path_of_walk walk) - 1)
  | Dataplane.Forward.No_route _ | Dataplane.Forward.Loop | Dataplane.Forward.Dropped _ ->
      None

(* Per-hop probe budgets, calibrated so a from-scratch measurement of a
   typical 5-6 hop reverse path costs ~35 probes (the paper's figure) and
   a cache-confirmed one ~10. *)
let rr_cost = 5
let ts_cost = 6
let sym_cost = 1
let confirm_cost = 1

(* Reveal the next reverse hop after [current]. The reply to a spoofed RR
   ping must actually reach the source network, so RR also requires the
   current hop to still have a working path to [to_ip]. *)
let reveal t ~current ~to_ip ~forward_mirror ~position =
  match next_hop_of t current ~to_ip with
  | None -> None
  | Some truth ->
      let rr_feasible =
        supports_rr t truth
        && List.exists
             (fun vp ->
               match hop_distance t ~from_:vp ~to_asn:current with
               | Some d -> d <= rr_range - 1
               | None -> false)
             t.vantage_points
      in
      if rr_feasible then begin
        spend t rr_cost;
        Some { asn = truth; how = Spoofed_record_route }
      end
      else if supports_ts t truth then begin
        spend t ts_cost;
        Some { asn = truth; how = Timestamp }
      end
      else begin
        (* Assume symmetry for this hop: take the mirrored forward-path
           hop, which is simply wrong when routing is asymmetric. *)
        spend t sym_cost;
        match List.nth_opt forward_mirror position with
        | Some assumed -> Some { asn = assumed; how = Assumed_symmetric }
        | None -> Some { asn = truth; how = Assumed_symmetric }
      end

let measure t ~from_ ~to_ip ?(cached = []) () =
  let net = t.env.Dataplane.Probe.net in
  let from_address = Dataplane.Forward.probe_address net from_ in
  (* Feasibility: some vantage point must deliver spoofed stimuli. *)
  let feasible =
    List.exists
      (fun vp -> Dataplane.Probe.delivers t.env ~src:vp ~dst:from_address)
      t.vantage_points
  in
  if not feasible then None
  else begin
    let probes_at_start = t.env.Dataplane.Probe.probes_sent in
    spend t 2 (* stimulus setup *);
    let source_as = Option.map snd (Bgp.Network.owner_of_address net to_ip) in
    (* Forward path from the source toward the destination, reversed: the
       mirror used by symmetry assumptions. *)
    let forward_mirror =
      match source_as with
      | Some src ->
          let walk =
            Dataplane.Forward.walk net t.env.Dataplane.Probe.failures ~src ~dst:from_address
          in
          List.rev (Dataplane.Forward.as_path_of_walk walk)
      | None -> []
    in
    let truth_path, _ = actual_path_from t from_ ~to_ip in
    (* Cache confirmation: one probe per hop while the cached path still
       matches reality. *)
    let rec confirm cached truth acc position =
      match (cached, truth) with
      | c :: crest, tr :: trest when Asn.equal c tr ->
          spend t confirm_cost;
          confirm crest trest ({ asn = c; how = Confirmed_cached } :: acc) (position + 1)
      | _ -> (List.rev acc, position)
    in
    let confirmed, start_position =
      if cached = [] then ([], 1) else confirm cached truth_path [] 0
    in
    let start_position = max 1 start_position in
    let delivered current =
      match source_as with
      | Some src -> Asn.equal current src
      | None -> false
    in
    (* Walk outward from the last known hop, revealing one hop at a
       time. *)
    let rec go current acc position steps =
      if steps > 30 then (List.rev acc, false)
      else if delivered current then (List.rev acc, true)
      else begin
        match reveal t ~current ~to_ip ~forward_mirror ~position with
        | None -> (List.rev acc, false)
        | Some hop -> go hop.asn (hop :: acc) (position + 1) (steps + 1)
      end
    in
    let start_hop, start_acc =
      match List.rev confirmed with
      | last :: _ -> (last.asn, List.rev confirmed)
      | [] -> (from_, [ { asn = from_; how = Spoofed_record_route } ])
    in
    let tail, complete = go start_hop [] start_position 0 in
    let path = start_acc @ tail in
    let assumed_hops =
      List.length (List.filter (fun h -> h.how = Assumed_symmetric) path)
    in
    Some
      {
        path;
        complete;
        probes_used = t.env.Dataplane.Probe.probes_sent - probes_at_start;
        assumed_hops;
      }
  end
