open Net
open Topology

type announcement = {
  prefix : Prefix.t;
  path : As_path.t;
}

let announcement ~prefix ~path =
  if As_path.is_empty path then invalid_arg "Route.announcement: empty AS path";
  { prefix; path }

(* A speaker exports one announcement value per loc-RIB best and its
   neighbors keep it by pointer, so the [==] test settles most duplicate
   checks; otherwise the cached path hashes settle it in O(1). *)
let announcement_equal a b =
  a == b || (Prefix.equal a.prefix b.prefix && As_path.equal a.path b.path)

type entry = {
  ann : announcement;
  neighbor : Asn.t;
  rel : Relationship.t;
  local_pref : int;
  learned_at : float;
  path_len : int;
  tiebreak : int;
}

(* Explicit integer mix, not the polymorphic [Hashtbl.hash], so decision
   tie-breaks are pinned by this source alone. *)
let tiebreak_rank ~salt neighbor =
  let z = (salt * 0x9E3779B1) lxor (Asn.to_int neighbor * 0x5F3759DF) in
  let z = z lxor (z lsr 16) in
  z land 0xFFFF

let make_entry ~ann ~neighbor ~rel ~local_pref ~tiebreak ~learned_at =
  { ann; neighbor; rel; local_pref; learned_at; path_len = As_path.length ann.path; tiebreak }

let local_pref_local = 400

let local_entry_of ~ann ~self ~now =
  make_entry ~ann ~neighbor:self ~rel:Relationship.Customer ~local_pref:local_pref_local
    ~tiebreak:0 ~learned_at:now

let is_local e = e.local_pref = local_pref_local

(* Told apart by a field, never by [==]: a world copied with Marshal
   (Template.fork) holds a copy of this value, at another address. Real
   preferences are positive, so [min_int] marks it and also ranks it
   below every real entry. *)
let no_route =
  {
    ann = { prefix = Prefix.make (Ipv4.of_int32 0l) 0; path = As_path.empty };
    neighbor = Asn.of_int 0;
    rel = Relationship.Provider;
    local_pref = min_int;
    learned_at = 0.0;
    path_len = 0;
    tiebreak = 0;
  }

let is_route e = e.local_pref <> min_int
