(** IPv4 addresses.

    Addresses identify routers and probe sources/destinations in the data
    plane. Stored as a raw 32-bit quantity; all arithmetic treats it as
    unsigned. *)

type t
(** An IPv4 address. *)

val of_int32 : int32 -> t
val to_int32 : t -> int32

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] builds [a.b.c.d]; each octet must be in
    [\[0, 255\]]. *)

val of_string : string -> t option
(** Parse dotted-quad notation. *)

val of_string_exn : string -> t
(** Like {!of_string}, raising [Invalid_argument] on a malformed input. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

val compare : t -> t -> int
(** Unsigned comparison, so ["10.0.0.1" < "192.0.2.1" < "224.0.0.1"]. *)

val add : t -> int -> t
(** [add t n] offsets the address by [n] (unsigned wraparound). *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

module Table : Hashtbl.S with type key = t
(** Hash tables keyed by address, with an arithmetic hash: a lookup
    calls no generic hash or comparison. *)
