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
  strip_communities : bool;
  honor_no_export_to_peers : bool;
  default_provider : Asn.t option;
  local_pref_override : (Asn.t * int) list;
  damping : damping option;
  pref_jitter : int;
}

let default =
  {
    loop_limit = 1;
    reject_peers_in_customer_paths = false;
    strip_communities = false;
    honor_no_export_to_peers = true;
    default_provider = None;
    local_pref_override = [];
    damping = None;
    pref_jitter = 0;
  }

let local_pref_for config ~self ~neighbor ~rel =
  match List.assoc_opt neighbor config.local_pref_override with
  | Some pref -> pref
  | None ->
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

type import_verdict = Accepted of int | Rejected of string

let import config ~self ~peers_of_self ~neighbor ~rel (ann : Route.announcement) =
  if As_path.count self ann.path >= config.loop_limit then Rejected "loop detected"
  else if
    config.reject_peers_in_customer_paths
    && Relationship.equal rel Relationship.Customer
    && As_path.exists (fun a -> Asn.Set.mem a peers_of_self) ann.path
  then Rejected "peer AS in customer-announced path"
  else Accepted (local_pref_for config ~self ~neighbor ~rel)

(* Export is split into the per-neighbor predicate [export_allowed] and the
   neighbor-independent rewrite [export_ann], so a speaker syncing one
   prefix toward many neighbors computes (and interns) the outgoing
   announcement once and runs only the cheap predicate per neighbor. *)

let export_allowed config ~self ~entry ~to_neighbor ~to_rel =
  let { Route.ann; rel = learned_from; neighbor; _ } = entry in
  let blocked_by_community =
    List.exists Community.is_no_export ann.Route.communities
    || (config.honor_no_export_to_peers
       && Relationship.equal to_rel Relationship.Peer
       && List.exists
            (Community.is_no_export_to_peers ~asn:(Asn.to_int self))
            ann.Route.communities)
  in
  (not (Asn.equal to_neighbor neighbor && not (Route.is_local entry)))
  && Relationship.export_ok ~learned_from ~to_:to_rel
  && not blocked_by_community

let export_ann config ~self ~entry =
  let ann = entry.Route.ann in
  let communities = if config.strip_communities then [] else ann.Route.communities in
  let path =
    if Route.is_local entry then ann.Route.path else As_path.prepend self ann.Route.path
  in
  { ann with Route.path; communities; med = None }

let export config ~self ~entry ~to_neighbor ~to_rel =
  if export_allowed config ~self ~entry ~to_neighbor ~to_rel then
    Some (export_ann config ~self ~entry)
  else None
