open Net
open Topology

type announcement = {
  prefix : Prefix.t;
  path : As_path.t;
}

let announcement ~prefix ~path =
  if As_path.is_empty path then invalid_arg "Route.announcement: empty AS path";
  { prefix; path }

(* Announcements interned by one world's [Path_store] are physically
   shared, so the [==] test settles the hot-path duplicate check in O(1);
   the attribute comparison only runs for uninterned values. *)
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

let make_entry ?salt ~ann ~neighbor ~rel ~local_pref ~learned_at () =
  {
    ann;
    neighbor;
    rel;
    local_pref;
    learned_at;
    path_len = As_path.length ann.path;
    tiebreak =
      (match salt with None -> 0 | Some salt -> tiebreak_rank ~salt neighbor);
  }

let local_pref_local = 400

let local_entry_of ~ann ~self ~now =
  make_entry ~ann ~neighbor:self ~rel:Relationship.Customer
    ~local_pref:local_pref_local ~learned_at:now ()

let is_local e = e.local_pref = local_pref_local
