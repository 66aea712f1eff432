type t = int

let of_int n =
  if n < 0 then invalid_arg "Asn.of_int: negative ASN";
  n

let to_int t = t
let equal = Int.equal
let compare = Int.compare
(* Explicit integer mix, not the polymorphic [Hashtbl.hash]: that is a C
   call per lookup, and ASN-keyed tables sit on the BGP hot path. *)
let hash t =
  let z = t * 0x9E3779B1 in
  (z lxor (z lsr 16)) land max_int
let pp fmt t = Format.fprintf fmt "AS%d" t
let to_string t = "AS" ^ string_of_int t

module Set = Set.Make (Int)
module Map = Map.Make (Int)
module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
