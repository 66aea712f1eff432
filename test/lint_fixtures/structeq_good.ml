(* must-pass: comparisons through the module's own
   equality, or structural equality on scalar projections. *)

let same_path p q = Bgp.As_path.equal p q
let same_ann a b = Bgp.Route.announcement_equal a b
let shorter p q = Bgp.As_path.length p < Bgp.As_path.length q
let same_len p q = Bgp.As_path.length p = Bgp.As_path.length q
