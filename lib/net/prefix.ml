(* A prefix packs into one immediate int, [network lsl 6 lor length]:
   the length fits in six bits, and the int order is the order by
   (unsigned network, length). *)
type t = int

let length_bits = 6
let length_mask = (1 lsl length_bits) - 1

(* The network bits of a [len]-bit prefix, as an unsigned 32-bit mask. *)
let mask_of_length len = if len = 0 then 0 else (0xFFFF_FFFF lsl (32 - len)) land 0xFFFF_FFFF
let pack network len = (network lsl length_bits) lor len

let make addr len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make: length out of [0,32]";
  pack (Ipv4.to_int addr land mask_of_length len) len

let length t = t land length_mask
let network_bits t = t lsr length_bits
let network t = Ipv4.of_int (network_bits t)
let to_string t = Printf.sprintf "%s/%d" (Ipv4.to_string (network t)) (length t)

let of_string s =
  match String.index_opt s '/' with
  | None -> None
  | Some i -> begin
      let addr = String.sub s 0 i in
      let len = String.sub s (i + 1) (String.length s - i - 1) in
      match (Ipv4.of_string addr, int_of_string_opt len) with
      | Some addr, Some len when len >= 0 && len <= 32 -> Some (make addr len)
      | _ -> None
    end

let of_string_exn s =
  match of_string s with
  | Some t -> t
  | None -> invalid_arg ("Prefix.of_string_exn: " ^ s)

let equal = Int.equal
let compare = Int.compare
let mem ip t = Ipv4.to_int ip land mask_of_length (length t) = network_bits t

let contains_prefix ~outer ~inner =
  length outer <= length inner
  && network_bits inner land mask_of_length (length outer) = network_bits outer

let split t =
  let len = length t in
  if len >= 32 then None
  else begin
    let low = pack (network_bits t) (len + 1) in
    let high = pack (network_bits t lor (1 lsl (31 - len))) (len + 1) in
    Some (low, high)
  end

let first_address = network

(* Number of addresses covered, saturating at [max_int] for /0. *)
let size t = if length t = 0 then max_int else 1 lsl (32 - length t)

let nth_address t i =
  if i < 0 || (length t > 0 && i >= size t) then
    invalid_arg "Prefix.nth_address: index out of range";
  Ipv4.add (network t) i

(* Explicit integer mix of the network, read signed as when it was an
   [int32], and the length. *)
let hash t =
  let z = (Ipv4.signed (network t) * 0x9E3779B1) lxor (length t * 0x85EBCA6B) in
  (z lxor (z lsr 16)) land max_int

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
