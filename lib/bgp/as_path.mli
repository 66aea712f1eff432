(** BGP AS paths, including the poisoning and prepending constructions at
    the heart of LIFEGUARD's remediation.

    A path lists ASes nearest-first: the head is the neighbor that
    announced the route and the last element is the origin. BGP's loop
    prevention — an AS rejects any path already containing its own number —
    is what poisoning exploits: the origin [O] announces [O-A-O] so that
    [A] drops the route and other ASes route around it.

    Representation: a path is a hash-consed node — an immutable ASN array
    plus a cached salted structural hash and an interner id. Constructors
    build uninterned nodes; a per-world {!Path_store} deduplicates them so
    that structurally-equal paths of one world are physically shared and
    {!equal} is O(1) on the hot path. Interner ids are world-local and
    never compared across worlds. *)

open Net

type t
(** Nearest AS first, origin last. Immutable; structurally-equal values
    interned by the same {!Path_store} are physically equal. *)

val empty : t
val is_empty : t -> bool

val origin : t -> Asn.t option
(** The last AS (the originator), if the path is non-empty. O(1). *)

val first_hop : t -> Asn.t option
(** The head of the path — the next-hop AS from the receiver's view. O(1). *)

val length : t -> int
(** Plain hop count, counting duplicates (so prepending lengthens a path,
    which is why it lowers preference). O(1). *)

val prepend : Asn.t -> t -> t
(** Returns a fresh uninterned node; intern it before storing in a RIB. *)

val contains : Asn.t -> t -> bool
val exists : (Asn.t -> bool) -> t -> bool
val fold : ('a -> Asn.t -> 'a) -> 'a -> t -> 'a

val count : Asn.t -> t -> int
(** Occurrences of an AS in the path. *)

val traversed : origin:Asn.t -> t -> t
(** The portion of the path that traffic actually traverses: everything
    before the first occurrence of [origin]. A poisoned announcement
    [X-Y-O-A-O] contains the poisoned AS [A] textually, but packets only
    cross [X-Y] before reaching the origin — so "does this route avoid
    [A]?" must be asked of the traversed portion. *)

val traverses : origin:Asn.t -> target:Asn.t -> t -> bool
(** [traverses ~origin ~target path]: does the traffic using this path
    actually cross [target]? *)

val plain : origin:Asn.t -> t
(** The ordinary origination path [O]. *)

val prepended : origin:Asn.t -> copies:int -> t
(** [prepended ~origin ~copies:3] is [O-O-O] — the steady-state baseline
    LIFEGUARD announces so that a later poisoned path has equal length. *)

val poisoned : origin:Asn.t -> poison:Asn.t -> t
(** [poisoned ~origin ~poison:a] is [O-A-O]: starts with the origin (so
    neighbors still route toward [O]), contains [A] to trigger its loop
    detection, and ends with the true origin (so registries stay
    consistent). Raises [Invalid_argument] if [poison] equals [origin]. *)

val poisoned_multi : origin:Asn.t -> poisons:Asn.t list -> t
(** [O-A1-...-Ak-O]: poison several ASes at once (used to defeat ASes that
    accept one occurrence of their own number, by inserting it twice —
    see §7.1). *)

val of_list : Asn.t list -> t
(** Build an (uninterned) path from a nearest-first ASN list. *)

val to_list : t -> Asn.t list

val equal : t -> t -> bool
(** Physical equality, then cached-hash comparison, then a structural walk
    only on hash collision — O(1) on values interned by one store, and
    O(1) with high probability on unequal values from anywhere. *)

val hash : t -> int
(** The cached salted structural hash (computed once at construction). *)

val pp : Format.formatter -> t -> unit
(** Prints as ["O A O"] style: space-separated ASNs, nearest first. *)

val to_string : t -> string

(** Interner plumbing for {!Path_store}; not for general use. *)
module Internal : sig
  val id : t -> int
  (** The interner id, or [-1] if the node is uninterned. World-local:
      meaningless to compare across worlds. *)

  val with_id : t -> int -> t
  (** A copy of the node carrying the given interner id (shares the ASN
      array). *)
end
