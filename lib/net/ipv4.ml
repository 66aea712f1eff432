(* An address is its unsigned 32-bit value as an immediate int, so the
   int order is the unsigned order and no address is ever boxed. *)
type t = int

let mask32 = 0xFFFF_FFFF

(* lint: allow LG-DEAD-EXPORT (seam: test_net.ml's int32 reference model) *)
let of_int32 x = Int32.to_int x land mask32

(* lint: allow LG-DEAD-EXPORT (seam: test_net.ml's int32 reference model) *)
let to_int32 t = Int32.of_int t

let of_int x = x land mask32
let to_int t = t

(* Sign-extend bit 31: with it set, [t lxor 2^31] is [t - 2^31], and
   subtracting [2^31] again gives [t - 2^32]. *)
let signed t = (t lxor 0x8000_0000) - 0x8000_0000

let of_octets a b c d =
  let check o = if o < 0 || o > 255 then invalid_arg "Ipv4.of_octets: octet out of range" in
  check a;
  check b;
  check c;
  check d;
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let octet t shift = (t lsr shift) land 0xFF

let to_string t =
  Printf.sprintf "%d.%d.%d.%d" (octet t 24) (octet t 16) (octet t 8) (octet t 0)

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> begin
      match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d) with
      | Some a, Some b, Some c, Some d
        when a >= 0 && a <= 255 && b >= 0 && b <= 255 && c >= 0 && c <= 255 && d >= 0 && d <= 255
        ->
          Some (of_octets a b c d)
      | _ -> None
    end
  | _ -> None

let equal = Int.equal

(* lint: allow LG-DEAD-EXPORT (seam: test_net.ml's unsigned-order and int32 model tests) *)
let compare = Int.compare
let add t n = (t + n) land mask32

(* Router addresses differ mostly in their middle octets (the ASN):
   spread them over the low bits the table indexes buckets by. *)
(* lint: allow LG-DEAD-EXPORT (seam: test_net.ml pins the table hash) *)
let hash a =
  let z = signed a * 0x9E3779B1 in
  (z lxor (z lsr 29)) land max_int

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
