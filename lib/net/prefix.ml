type t = { network : Ipv4.t; length : int }

let mask_of_length len =
  if len = 0 then 0l else Int32.shift_left (-1l) (32 - len)

let make addr len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make: length out of [0,32]";
  let network = Ipv4.of_int32 (Int32.logand (Ipv4.to_int32 addr) (mask_of_length len)) in
  { network; length = len }

let network t = t.network
let length t = t.length
let to_string t = Printf.sprintf "%s/%d" (Ipv4.to_string t.network) t.length

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

let pp fmt t = Format.pp_print_string fmt (to_string t)

let equal a b = Ipv4.equal a.network b.network && Int.equal a.length b.length

let compare a b =
  match Ipv4.compare a.network b.network with
  | 0 -> Int.compare a.length b.length
  | c -> c

let mem ip t =
  let m = mask_of_length t.length in
  Int32.equal (Int32.logand (Ipv4.to_int32 ip) m) (Ipv4.to_int32 t.network)

let contains_prefix ~outer ~inner =
  outer.length <= inner.length && mem inner.network outer

let split t =
  if t.length >= 32 then None
  else begin
    let len = t.length + 1 in
    let low = { network = t.network; length = len } in
    let high_bit = Int32.shift_left 1l (32 - len) in
    let high =
      { network = Ipv4.of_int32 (Int32.logor (Ipv4.to_int32 t.network) high_bit); length = len }
    in
    Some (low, high)
  end

let first_address t = t.network

let size t =
  if t.length = 0 then max_int else 1 lsl (32 - t.length)

let nth_address t i =
  if i < 0 || (t.length > 0 && i >= size t) then
    invalid_arg "Prefix.nth_address: index out of range";
  Ipv4.add t.network i

(* Explicit integer mix, not the polymorphic [Hashtbl.hash]: the network
   address is a boxed int32 the generic hash would chase, and prefix-keyed
   tables sit on the BGP hot path. *)
let hash t =
  let z = (Int32.to_int (Ipv4.to_int32 t.network) * 0x9E3779B1) lxor (t.length * 0x85EBCA6B) in
  (z lxor (z lsr 16)) land max_int

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
