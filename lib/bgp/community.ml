type t = { asn : int; value : int }

let make ~asn ~value =
  if asn < 0 || value < 0 then invalid_arg "Community.make: negative field";
  { asn; value }

let equal a b = a.asn = b.asn && a.value = b.value

let compare a b =
  match Int.compare a.asn b.asn with
  | 0 -> Int.compare a.value b.value
  | c -> c

let hash t = ((t.asn * 0x9E3779B1) lxor (t.value * 0x85EBCA6B)) land max_int

let pp fmt t = Format.fprintf fmt "%d:%d" t.asn t.value
let no_export = { asn = 65535; value = 65281 }
let is_no_export t = equal t no_export
let is_no_export_to_peers ~asn t = t.asn = asn && t.value = 666
