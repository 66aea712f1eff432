(** Longest-prefix-match table.

    A binary trie from {!Prefix.t} to values, supporting the lookup
    forwarding performs: given a destination address, find the value bound
    to the most specific matching prefix. This is what makes a sentinel
    less-specific act as a backup route for captive ASes — they match the
    /x sentinel only when no more-specific production route survives.

    The trie is updated in place: an install walks the prefix's path and
    allocates only the nodes it adds, which keeps a speaker's FIB cheap
    to maintain on the BGP update path. *)

type 'a t

val create : unit -> 'a t
(** An empty table. *)

val replace : 'a t -> Prefix.t -> 'a -> unit
(** Bind (or replace) the value at exactly this prefix. *)

val remove : 'a t -> Prefix.t -> unit
(** Remove the binding at exactly this prefix, if any. *)

val lookup : 'a t -> Ipv4.t -> (Prefix.t * 'a) option
(** Longest-prefix match for an address. *)

val find_longest : 'a t -> Ipv4.t -> 'a option
(** [Option.map snd (lookup t ip)], allocating nothing: the value bound
    to the most specific prefix covering the address. The forwarding
    walk's per-hop lookup. *)
