(** Longest-prefix-match table.

    A binary trie from {!Prefix.t} to values, supporting the lookup
    forwarding performs: given a destination address, find the value bound
    to the most specific matching prefix. This is what makes a sentinel
    less-specific act as a backup route for captive ASes — they match the
    /x sentinel only when no more-specific production route survives. *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool

val add : Prefix.t -> 'a -> 'a t -> 'a t
(** Bind (or replace) the value at exactly this prefix. *)

val remove : Prefix.t -> 'a t -> 'a t
(** Remove the binding at exactly this prefix, if any. *)

val find_exact : Prefix.t -> 'a t -> 'a option
(** The value bound at exactly this prefix. *)

val lookup : Ipv4.t -> 'a t -> (Prefix.t * 'a) option
(** Longest-prefix match for an address. *)

val find_longest : Ipv4.t -> 'a t -> 'a option
(** [Option.map snd (lookup ip t)], allocating nothing: the value bound
    to the most specific prefix covering the address. The forwarding
    walk's per-hop lookup. *)

val lookup_prefix : Prefix.t -> 'a t -> (Prefix.t * 'a) option
(** Longest match among prefixes that cover the given prefix entirely
    (including itself). *)

val bindings : 'a t -> (Prefix.t * 'a) list
(** All bindings, most-significant-bit order. *)

val cardinal : 'a t -> int
val fold : (Prefix.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
