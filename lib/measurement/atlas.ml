open Net

(* Atlas consultation accounting (Obs): a lookup that finds a usable
   snapshot is a hit, one that comes back empty is a miss — the ratio is
   what says whether the refresh cadence keeps isolation off the slow
   on-demand measurement path. *)
let m_hit = Obs.Metrics.counter "meas.atlas.hit"
let m_miss = Obs.Metrics.counter "meas.atlas.miss"

type snapshot = { taken_at : float; path : Asn.t list }

(* The pair's last measurement, with the env and [Probe.stamp] it was
   taken under and the probes each half charged. *)
type measured = {
  env : Dataplane.Probe.env;
  stamp : int;
  forward_path : Asn.t list;
  forward_probes : int;
  reverse_path : Asn.t list option;  (** [None]: reverse traceroute infeasible. *)
  reverse_probes : int;
}

type pair_state = {
  mutable forward : snapshot list;  (** newest first *)
  mutable reverse : snapshot list;
  mutable last : measured option;
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
      let s = { forward = []; reverse = []; last = None } in
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

let candidate_hops t ~vp ~dst =
  let s = state t ~vp ~dst in
  let add acc snaps =
    List.fold_left
      (fun acc snap -> List.fold_left (fun acc a -> Asn.Set.add a acc) acc snap.path)
      acc snaps
  in
  add (add Asn.Set.empty s.forward) s.reverse

let hop_asns (trace : Dataplane.Probe.trace) =
  List.map (fun th -> th.Dataplane.Probe.hop.Dataplane.Forward.asn) trace.hops

let measure env ~vp ~dst ~stamp =
  let net = env.Dataplane.Probe.net in
  let sent () = env.Dataplane.Probe.probes_sent in
  let before = sent () in
  let tr = Dataplane.Probe.traceroute env ~src:vp ~dst:(Dataplane.Forward.probe_address net dst) in
  let forward_probes = sent () - before in
  let reverse =
    Dataplane.Probe.reverse_traceroute env ~vantage_points:[ vp ] ~from_:dst
      ~to_ip:(Dataplane.Forward.probe_address net vp)
  in
  {
    env;
    stamp;
    forward_path = hop_asns tr;
    forward_probes;
    reverse_path = Option.map hop_asns reverse;
    reverse_probes = sent () - before - forward_probes;
  }

(* While the data plane has not moved since the pair's last measurement,
   a fresh one would walk the same paths and charge the same probes:
   charge them, in the same order, and record the same paths. *)
let refresh t env ~vp ~dst ~now =
  let s = state t ~vp ~dst in
  let stamp = Dataplane.Probe.stamp env in
  let m =
    match s.last with
    | Some m when m.env == env && m.stamp = stamp ->
        Dataplane.Probe.charge env m.forward_probes;
        if Option.is_some m.reverse_path then Dataplane.Probe.charge env m.reverse_probes;
        m
    | Some _ | None ->
        let m = measure env ~vp ~dst ~stamp in
        s.last <- Some m;
        m
  in
  (* The forward path is listed vp first, the reverse path destination
     first (the path packets take from [dst] back to [vp]). *)
  s.forward <- push s.forward ~now m.forward_path;
  match m.reverse_path with
  | Some path -> s.reverse <- push s.reverse ~now path
  | None -> ()

let refresh_all t env ~vps ~dsts ~now =
  List.iter (fun vp -> List.iter (fun dst -> refresh t env ~vp ~dst ~now) dsts) vps

let pair_count t = Hashtbl.length t.pairs
