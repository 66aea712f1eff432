(** Longest-prefix-match table.

    A binary trie from {!Prefix.t} to values, supporting the lookup
    forwarding performs: given a destination address, find the value bound
    to the most specific matching prefix. This is what makes a sentinel
    less-specific act as a backup route for captive ASes — they match the
    /x sentinel only when no more-specific production route survives. *)

type 'a t

val empty : 'a t

val add : Prefix.t -> 'a -> 'a t -> 'a t
(** Bind (or replace) the value at exactly this prefix. *)

val remove : Prefix.t -> 'a t -> 'a t
(** Remove the binding at exactly this prefix, if any. *)

val lookup : Ipv4.t -> 'a t -> (Prefix.t * 'a) option
(** Longest-prefix match for an address. *)

val find_longest : Ipv4.t -> 'a t -> 'a option
(** [Option.map snd (lookup ip t)], allocating nothing: the value bound
    to the most specific prefix covering the address. The forwarding
    walk's per-hop lookup. *)

val cardinal : 'a t -> int
val fold : (Prefix.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
