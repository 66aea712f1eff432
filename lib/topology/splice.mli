(** Policy-compliant path existence and traceroute splicing.

    Two pieces of the paper live here. First, the valley-free reachability
    check used by §5.1's large-scale poisoning simulation and by
    LIFEGUARD's "will an alternate path exist if I poison?" decision:
    {!policy_reachable} asks whether a Gao–Rexford-compliant path exists
    between two ASes while avoiding a set of ASes (the poisoned one, plus
    optionally one endpoint's provider). Second, the §2.2 splicing study:
    {!splice_around} tries to join an observed path from the source with an
    observed path to the destination at a shared hop, accepting the joint
    only when its three-AS subpath centered at the splice point was
    observed in some real path (the "three-tuple test" that stands in for
    unknown export policies). *)

open Net

val valley_free : As_graph.t -> Asn.t list -> bool
(** Whether an AS path (listed source first) obeys Gao–Rexford export
    rules given the graph's relationships: uphill (customer-to-provider)
    segments, at most one peering edge, then downhill. Unknown links make
    the path invalid. *)

val policy_reachable : As_graph.t -> src:Asn.t -> dst:Asn.t -> avoiding:Asn.Set.t -> bool
(** Is there a valley-free path from [src] to [dst] that touches no AS in
    [avoiding]? Implemented as a two-phase BFS ("still allowed to go up"
    vs. "now strictly downhill"), linear in the number of links. [src] or
    [dst] being in [avoiding] yields [false]; [src = dst] yields [true]
    (when not avoided). *)

val policy_path : As_graph.t -> src:Asn.t -> dst:Asn.t -> avoiding:Asn.Set.t -> Asn.t list option
(** Like {!policy_reachable} but materializes a shortest such path
    (source first). *)

(** The three-tuple export-policy test over a corpus of observed paths. *)
module Tuples : sig
  type t

  val of_paths : Asn.t list list -> t
  (** Index every length-3 AS subpath (and the length-2 prefixes/suffixes
      at path ends) of the observed paths. *)
end

val splice_around :
  from_src:Asn.t list list ->
  to_dst:Asn.t list list ->
  tuples:Tuples.t ->
  avoid:Asn.t ->
  dst:Asn.t ->
  Asn.t list option
(** [splice_around ~from_src ~to_dst ~tuples ~avoid ~dst] looks for a
    working path from the source built by joining a prefix of some
    observed source path with a suffix of some observed path toward [dst],
    intersecting at a shared AS hop, avoiding [avoid] entirely, reaching
    [dst], and passing the three-tuple test at the splice point. Returns
    the first (shortest splice) found, source first. *)
