(** A world's dense prefix ids, in one {!Prefix_trie} table.

    One store per simulated world (in sharded mode, per shard):
    {!Network.create} builds it and threads it through every
    {!Speaker.create}, and each speaker indexes its per-prefix state by
    the store's ids. There is deliberately no module-level default store:
    lib/par worlds are share-nothing (LG-DOM-MUT). The store keeps no
    paths or announcements; routes are shared by pointer between the
    speakers that pass them on (see {!As_path}). *)

open Net

type t

val create : unit -> t

val prefix_id : t -> Prefix.t -> int
(** The prefix's dense id in this store: [0], [1], ... in first-sight
    order, assigned on the first call for a prefix, so ids keep growing
    as sentinels and more-specific prefixes appear late in a run. A
    {!Speaker} indexes its per-prefix state (adj-RIB-in, loc-RIB,
    adj-RIB-out, origination) by it. Ids are per store: every speaker
    of a world uses its world's store (in sharded mode, its shard's),
    so an id is meaningful only inside the store that
    assigned it. Ids are never printed or compared across stores, and
    output never depends on them. *)

val ordered_prefix_ids : t -> int array
(** Every id {!prefix_id} has assigned, in [Prefix.compare] order of the
    prefixes. The array is rebuilt only after a new prefix got an id;
    otherwise each call returns the same array, which callers must not
    modify. A {!Speaker} walks it for every list it builds across
    prefixes, instead of sorting its slots. *)

val find_prefix_id : t -> Prefix.t -> int option
(** The prefix's id if {!prefix_id} has assigned one; assigns nothing
    and allocates nothing. *)

val longest_match : t -> Ipv4.t -> ('s -> int -> 'a option) -> 's -> 'a option
(** [longest_match t ip f s] tries the store's prefixes that cover [ip]
    from the most to the least specific and returns the first [f s id]
    that is not [None]: {!Prefix_trie.find_longest} over the table from
    each prefix to its id that {!prefix_id} fills. A {!Speaker}'s FIB
    lookup is this search, with an [f] that reads the speaker's FIB
    entry in the prefix's slot; it allocates nothing of its own. *)

