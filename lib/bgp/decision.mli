(** The BGP best-route decision process.

    The ordering has exactly three steps and a final fallback: highest
    local preference (set by the neighbor's relationship: customer > peer
    > provider), then shortest AS path (counting prepended copies — which
    is what makes prepending a traffic steering tool), then the salted
    per-speaker tiebreak rank standing in for IGP cost / router-id, then
    lowest neighbor ASN. There is no MED step: announcements carry no
    attributes besides the AS path. One property the paper leans on
    emerges from this ordering: a poisoned path [O-A-O] ties with the
    prepended baseline [O-O-O] (same length, same preference), so ASes
    not routing through [A] have no reason to explore alternatives.

    This is the one definition of the order. A {!Speaker} compares the
    routes in its adj-RIB-in, which are the neighbors' announcements:
    it reads each one's preference off its session as it compares, and
    the rank is computed here from the neighbor, only on a tie in
    preference and length. *)

open Net

val compare :
  salt:int ->
  pref_a:int ->
  len_a:int ->
  neighbor_a:Asn.t ->
  pref_b:int ->
  len_b:int ->
  neighbor_b:Asn.t ->
  int
(** [compare ... > 0] when route [a] (local preference [pref_a], path
    length [len_a], learned from [neighbor_a]) is preferred over route
    [b]: the lexicographic order on the key [(pref, -len, -rank,
    -neighbor)], where a route's rank is its neighbor's
    {!Route.tiebreak_rank}[ ~salt] (the deciding speaker's ASN). It is a
    total order over routes from distinct neighbors, so the best of a
    set does not depend on the order in which it is scanned: each AS
    breaks exact ties in its own idiosyncratic (but deterministic) order,
    which is what makes real forward and reverse routes asymmetric.
    Allocates nothing. *)
