open Net

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

type entry = { ann : announcement; neighbor : Asn.t }

(* Explicit integer mix, not the polymorphic [Hashtbl.hash], so decision
   tie-breaks are pinned by this source alone. *)
let tiebreak_rank ~salt neighbor =
  let z = (salt * 0x9E3779B1) lxor (Asn.to_int neighbor * 0x5F3759DF) in
  let z = z lxor (z lsr 16) in
  z land 0xFFFF

(* Told apart by a field, never by [==]: a world copied with Marshal
   (Template.fork) holds a copy of this value, at another address. A
   real announcement's path is never empty. *)
let no_route = { prefix = Prefix.make (Ipv4.of_int 0) 0; path = As_path.empty }
let is_route a = not (As_path.is_empty a.path)
