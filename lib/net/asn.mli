(** Autonomous-system numbers.

    BGP reasons about the Internet at the granularity of ASes; an {!t} is
    the identifier every other layer of this reproduction uses to name a
    network. The type is abstract to keep ASNs from mixing with other
    integers (router ids, counts, ...). *)

type t [@@immediate]
(** An AS number: an immediate int, so an array or record field of ASNs
    holds them unboxed and storing one allocates nothing. *)

val of_int : int -> t
(** [of_int n] for [n >= 0]. Raises [Invalid_argument] on negatives. *)

val to_int : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Explicit integer mix (not the polymorphic [Hashtbl.hash]); {!Table}
    hashes with it. *)

val pp : Format.formatter -> t -> unit
(** Prints as ["AS174"]. *)

val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Table : Hashtbl.S with type key = t
