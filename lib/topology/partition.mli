(** Deterministic AS-graph partitioning for sharded single-world
    simulation.

    A partition assigns every AS of a graph to one of [parts] shards so
    that each shard's BGP speakers can run on their own event queue (see
    {!Shard.Barrier} and [Bgp.Network]'s sharded mode), with only the
    {e cut} — adjacencies whose endpoints land in different shards —
    crossing the deterministic time barriers.

    The algorithm is a seeded multi-source BFS growth with a balance cap
    and a bounded greedy refinement pass:

    + seeds are the [parts] highest-degree ASes, preferring seeds not
      adjacent to one another so regions grow from separated cores;
    + regions grow breadth-first in round-robin over shards, each shard
      claiming unassigned neighbors in ascending-ASN order, capped at
      [ceil (n / parts) + slack] members so no shard starves;
    + stragglers (disconnected or capped out) join the currently
      smallest shard, smallest index winning ties;
    + a fixed number of refinement sweeps then move boundary ASes to a
      neighboring shard when that strictly reduces the cut without
      violating the balance cap, visiting ASes in ascending-ASN order.

    Every step iterates in a sorted or seeded-PRNG order, so the result
    is a pure function of [(graph, parts, seed)] — the property the
    byte-identical shard-count (1/2/4) discipline rests on. *)

open Net

type t

val compute : As_graph.t -> parts:int -> seed:int -> t
(** Partition the graph into [parts] shards ([parts >= 1]; values larger
    than the AS count are clamped). [seed] perturbs only seed selection
    among equal-degree candidates; two calls with equal arguments return
    identical assignments. *)

val parts : t -> int
(** The number of shards actually used (after clamping). *)

val shard_of : t -> Asn.t -> int
(** The shard index in [\[0, parts)] an AS was assigned to. Raises
    [Invalid_argument] for an AS that was not in the partitioned
    graph. *)

val size : t -> int -> int
(** Number of ASes assigned to a shard. *)

val cut_edges : t -> int
(** Number of undirected graph edges whose endpoints are in different
    shards — each such adjacency becomes a boundary session whose
    updates must cross a time barrier. *)

val assignment : t -> (Asn.t * int) list
(** The full assignment in ascending-ASN order (for golden tests and
    debugging dumps). *)
