open Net
open Topology

type damping = {
  penalty_per_flap : float;
  suppress_threshold : float;
  reuse_threshold : float;
  half_life : float;
}

let default_damping =
  { penalty_per_flap = 1000.0; suppress_threshold = 2000.0; reuse_threshold = 750.0; half_life = 900.0 }

type config = {
  loop_limit : int;
  reject_peers_in_customer_paths : bool;
  damping : damping option;
  pref_jitter : int;
}

let default =
  {
    loop_limit = 1;
    reject_peers_in_customer_paths = false;
    damping = None;
    pref_jitter = 0;
  }

let local_pref_for config ~self ~neighbor ~rel =
  (* Explicit integer mix, not the polymorphic [Hashtbl.hash], so the
     per-neighbor preference jitter is pinned by this source alone. *)
  let jitter =
    if config.pref_jitter <= 0 then 0
    else begin
      let z = (Asn.to_int self * 0x9E3779B1) lxor (Asn.to_int neighbor * 0x85EBCA6B) in
      let z = z lxor (z lsr 16) in
      (z land 0xFFFF) mod (config.pref_jitter + 1)
    end
  in
  Relationship.local_pref rel + jitter

type import_verdict = Accepted | Rejected of string

let import config ~self ~peers ~is_peer ~rel (ann : Route.announcement) =
  if As_path.count self ann.path >= config.loop_limit then Rejected "loop detected"
  else if
    config.reject_peers_in_customer_paths
    && Relationship.equal rel Relationship.Customer
    && As_path.exists (fun a -> is_peer peers a) ann.path
  then Rejected "peer AS in customer-announced path"
  else Accepted

(* Export is split into the per-neighbor predicate [export_allowed] and the
   neighbor-independent rewrite [export_ann], so a speaker syncing one
   prefix toward many neighbors computes the outgoing announcement once
   and runs only the cheap predicate per neighbor. *)

let export_allowed ~entry ~to_neighbor ~to_rel =
  let { Route.rel = learned_from; neighbor; _ } = entry in
  (not (Asn.equal to_neighbor neighbor && not (Route.is_local entry)))
  && Relationship.export_ok ~learned_from ~to_:to_rel

let export_ann ~self ~entry =
  let ann = entry.Route.ann in
  if Route.is_local entry then ann
  else { ann with Route.path = As_path.prepend self ann.Route.path }
