(** IPv4 addresses.

    Addresses identify routers and probe sources/destinations in the data
    plane. An address is an immediate int in [\[0, 2{^32})]: storing one
    allocates nothing and writes no barrier, and the int order is the
    unsigned address order. *)

type t [@@immediate]
(** An IPv4 address. *)

val of_int32 : int32 -> t
val to_int32 : t -> int32
(** Conversions from and to the 32-bit pattern, [to_int32] of an
    address above [127.255.255.255] being negative. *)

val of_int : int -> t
(** The address whose value is the low 32 bits of the int. *)

val to_int : t -> int
(** The address as an unsigned int in [\[0, 2{^32})]. *)

val signed : t -> int
(** The address read as a signed 32-bit integer (what [Int32.to_int]
    gave when addresses were [int32]). The integer mixes keyed by an
    address (this module's {!Table} hash, [Prefix.hash], the router and
    option-support choices of the data plane) read this value, so their
    results do not depend on the representation. *)

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] builds [a.b.c.d]; each octet must be in
    [\[0, 255\]]. *)

val of_string : string -> t option
(** Parse dotted-quad notation. *)

val to_string : t -> string

val compare : t -> t -> int
(** Unsigned comparison, so ["10.0.0.1" < "192.0.2.1" < "224.0.0.1"]. *)

val add : t -> int -> t
(** [add t n] offsets the address by [n] (unsigned wraparound). *)

val hash : t -> int
(** The {!Table} hash: an arithmetic mix of {!signed}. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

module Table : Hashtbl.S with type key = t
(** Hash tables keyed by address, with an arithmetic hash: a lookup
    calls no generic hash or comparison. *)
