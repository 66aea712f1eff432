(** Longest-prefix-match table.

    A binary trie from {!Prefix.t} to values, supporting the lookup
    forwarding performs: given a destination address, find the value bound
    to the most specific matching prefix. This is what makes a sentinel
    less-specific act as a backup route for captive ASes — they match the
    /x sentinel only when no more-specific production route survives.

    The trie is updated in place: an insert walks the prefix's path and
    allocates only the nodes it adds. Each world keeps one trie from its
    prefixes to their dense ids (in [Bgp.Path_store], which holds the ids
    and nothing else), and every speaker's
    FIB lookup walks that trie with {!find_longest}, skipping the
    prefixes it holds no FIB entry for; the network's address-ownership
    map is a second trie. *)

type 'a t

val create : unit -> 'a t
(** An empty table. *)

val replace : 'a t -> Prefix.t -> 'a -> unit
(** Bind (or replace) the value at exactly this prefix. *)

val remove : 'a t -> Prefix.t -> unit
(** Remove the binding at exactly this prefix, if any. *)

val lookup : 'a t -> Ipv4.t -> (Prefix.t * 'a) option
(** Longest-prefix match for an address. *)

val find_longest : 'a t -> Ipv4.t -> ('s -> 'a -> 'b option) -> 's -> 'b option
(** [find_longest t ip f s] is [f s v] for the value [v] bound to the
    most specific prefix covering the address for which [f s v] is not
    [None] ([None] when there is none). With [f] giving [Some v] for
    every [v], it is the value of {!lookup}. The walk allocates nothing
    of its own, and [f] gets [s] as an argument so that it need not be
    a closure: the forwarding walk's per-hop lookup. *)
