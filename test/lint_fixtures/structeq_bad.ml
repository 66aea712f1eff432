(* must-flag: structural =/compare on BGP paths and routes skips the
   O(1) cached-hash equality. Four violations. *)

let same_ann a b = a.Bgp.Route.ann = b.Bgp.Route.ann
let changed x y = x.Route.path <> y.Route.path
let is_fresh p asn = p = Bgp.As_path.plain ~origin:asn
let order p q = Stdlib.compare (Bgp.As_path.traversed p) q
