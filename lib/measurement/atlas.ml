open Net

(* Atlas consultation accounting (Obs): a lookup that finds a usable
   snapshot is a hit, one that comes back empty is a miss — the ratio is
   what says whether the refresh cadence keeps isolation off the slow
   on-demand measurement path. *)
let m_hit = Obs.Metrics.counter "meas.atlas.hit"
let m_miss = Obs.Metrics.counter "meas.atlas.miss"

type snapshot = { taken_at : float; path : Asn.t list }

type pair_state = {
  mutable forward : snapshot list;  (** newest first *)
  mutable reverse : snapshot list;
}

type t = { pairs : (int, pair_state) Hashtbl.t }

let create () = { pairs = Hashtbl.create 256 }

(* Pack the (vp, dst) ASN pair into one immediate int key: ASNs fit in
   31 bits, so the pair fits a 63-bit OCaml int without collision. *)
let key ~vp ~dst = (Asn.to_int vp lsl 31) lor Asn.to_int dst

let state t ~vp ~dst =
  let k = key ~vp ~dst in
  match Hashtbl.find_opt t.pairs k with
  | Some s -> s
  | None ->
      let s = { forward = []; reverse = [] } in
      Hashtbl.replace t.pairs k s;
      s

(* Consecutive duplicate paths are collapsed into the newest snapshot:
   Internet paths are stable [37], so this keeps histories short without
   losing change points. *)
let push existing ~now path =
  match existing with
  | { taken_at = _; path = prev } :: rest when List.length prev = List.length path
                                                && List.for_all2 Asn.equal prev path ->
      { taken_at = now; path } :: rest
  | _ -> { taken_at = now; path } :: existing

let record_forward t ~vp ~dst ~now path =
  let s = state t ~vp ~dst in
  s.forward <- push s.forward ~now path

(* Store an observed reverse path, listed destination first (the path
   packets take from [dst] back to [vp]). *)
let record_reverse t ~vp ~dst ~now path =
  let s = state t ~vp ~dst in
  s.reverse <- push s.reverse ~now path

let forward_history t ~vp ~dst = (state t ~vp ~dst).forward
let reverse_history t ~vp ~dst = (state t ~vp ~dst).reverse

let latest ~before history =
  let keep snap =
    match before with
    | Some limit -> snap.taken_at <= limit
    | None -> true
  in
  List.find_opt keep history

let noting_hit result =
  (match result with
  | Some _ -> Obs.Metrics.incr m_hit
  | None -> Obs.Metrics.incr m_miss);
  result

let latest_forward t ~vp ~dst ?before () =
  noting_hit (latest ~before (state t ~vp ~dst).forward)

let latest_reverse t ~vp ~dst ?before () =
  noting_hit (latest ~before (state t ~vp ~dst).reverse)

let candidate_hops t ~vp ~dst =
  let s = state t ~vp ~dst in
  let add acc snaps =
    List.fold_left
      (fun acc snap -> List.fold_left (fun acc a -> Asn.Set.add a acc) acc snap.path)
      acc snaps
  in
  add (add Asn.Set.empty s.forward) s.reverse

let refresh t env ~vp ~dst ~now =
  let dst_address = Dataplane.Forward.probe_address env.Dataplane.Probe.net dst in
  let tr = Dataplane.Probe.traceroute env ~src:vp ~dst:dst_address in
  let forward_path =
    List.map (fun th -> th.Dataplane.Probe.hop.Dataplane.Forward.asn) tr.Dataplane.Probe.hops
  in
  record_forward t ~vp ~dst ~now forward_path;
  let vp_address = Dataplane.Forward.probe_address env.Dataplane.Probe.net vp in
  match
    Dataplane.Probe.reverse_traceroute env ~vantage_points:[ vp ] ~from_:dst ~to_ip:vp_address
  with
  | Some rtrace ->
      let reverse_path =
        List.map
          (fun th -> th.Dataplane.Probe.hop.Dataplane.Forward.asn)
          rtrace.Dataplane.Probe.hops
      in
      record_reverse t ~vp ~dst ~now reverse_path
  | None -> ()

let refresh_all t env ~vps ~dsts ~now =
  List.iter (fun vp -> List.iter (fun dst -> refresh t env ~vp ~dst ~now) dsts) vps

let pair_count t = Hashtbl.length t.pairs
