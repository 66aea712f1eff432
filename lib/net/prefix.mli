(** CIDR prefixes.

    Prefixes are the unit of BGP routing. LIFEGUARD's remediation relies on
    the relationships between prefixes: a production prefix is poisoned
    while a covering {e less-specific} sentinel prefix stays unpoisoned, and
    longest-prefix-match forwarding sends captive networks to the sentinel.
    {!contains_prefix} and {!compare_specificity} encode those
    relationships. *)

type t
(** A prefix: network address plus mask length. The network address is
    canonicalized (host bits cleared) on construction. *)

val make : Ipv4.t -> int -> t
(** [make addr len] for [len] in [\[0, 32\]]; host bits of [addr] are
    cleared. Raises [Invalid_argument] on a bad length. *)

val of_string_exn : string -> t
(** Parse ["a.b.c.d/len"]; raises [Invalid_argument] on a malformed
    input. *)

val network : t -> Ipv4.t
val length : t -> int
val to_string : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Explicit integer mix of network address and mask length (not the
    polymorphic [Hashtbl.hash], which would walk the boxed address). *)

val mem : Ipv4.t -> t -> bool
(** [mem ip p] tests whether [ip] falls inside [p]. *)

val contains_prefix : outer:t -> inner:t -> bool
(** [contains_prefix ~outer ~inner] holds when every address of [inner]
    lies in [outer] (so [outer] is a less- or equally-specific covering
    prefix). *)

val split : t -> (t * t) option
(** Halve a prefix into its two more-specifics; [None] for a /32. *)

val first_address : t -> Ipv4.t
(** Lowest address of the prefix (the network address). *)

val nth_address : t -> int -> Ipv4.t
(** [nth_address p i] is the [i]-th address of [p]; raises if out of
    range. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

module Table : Hashtbl.S with type key = t
(** Hashtbl keyed by prefixes via {!hash} and {!equal} — use this instead
    of a polymorphic [(Prefix.t, _) Hashtbl.t]. *)
