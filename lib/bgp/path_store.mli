(** Per-world interner for AS paths and announcements, and the world's
    dense prefix ids.

    One store per simulated world: {!Network.create} builds it and threads
    it through every {!Speaker.create}, so structurally-equal paths and
    announcements inside a world collapse to one physical value and
    [As_path.equal] / [Route.announcement_equal] settle on the [==] fast
    path. There is deliberately no module-level default store — lib/par
    worlds are share-nothing (LG-DOM-MUT), and a shared table would make
    interner ids depend on world scheduling. Interning never changes what
    a table prints, so experiment output stays byte-identical at any
    [--jobs]. *)

open Net

type t

val create : unit -> t

val intern_path : t -> As_path.t -> As_path.t
(** The store's canonical physical value for this path; stamps a fresh
    world-local id on first sight. Idempotent. *)

val intern_ann : t -> Route.announcement -> Route.announcement
(** Canonical announcement (its path interned too). Idempotent. *)

val prefix_id : t -> Prefix.t -> int
(** The prefix's dense id in this store: [0], [1], ... in first-sight
    order, assigned on the first call for a prefix, so ids keep growing
    as sentinels and more-specific prefixes appear late in a run. A
    {!Speaker} indexes its per-prefix state (adj-RIB-in, loc-RIB,
    adj-RIB-out, origination) by it. Ids are per store, like path ids:
    every speaker of a world uses its world's store (in sharded mode,
    its shard's), so an id is meaningful only inside the store that
    assigned it. Ids are never printed or compared across stores, and
    output never depends on them. *)

val ordered_prefix_ids : t -> int array
(** Every id {!prefix_id} has assigned, in [Prefix.compare] order of the
    prefixes. The array is rebuilt only after a new prefix got an id;
    otherwise each call returns the same array, which callers must not
    modify. A {!Speaker} walks it for every list it builds across
    prefixes, instead of sorting its slots. *)

val find_prefix_id : t -> Prefix.t -> int option
(** The prefix's id if {!prefix_id} has assigned one; assigns nothing. *)

val longest_match : t -> Ipv4.t -> ('s -> int -> 'a option) -> 's -> 'a option
(** [longest_match t ip f s] walks the store's prefixes that cover [ip]
    from the least to the most specific and returns [f s id] for the
    deepest one whose [f s id] is not [None]: {!Prefix_trie.find_longest}
    over a trie from each prefix to its id, filled by {!prefix_id}. A
    {!Speaker}'s FIB lookup is this walk, with an [f] that reads the
    speaker's FIB entry in the prefix's slot; it allocates nothing of its
    own. *)

val path_count : t -> int
(** Distinct paths interned so far. *)

val ann_count : t -> int
(** Distinct announcements interned so far. *)
