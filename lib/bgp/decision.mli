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

    The per-speaker tiebreak salt is no longer a parameter here: it is
    baked into each entry at import time ([Route.make_entry ?salt]), so
    comparisons read the cached [path_len] and [tiebreak] fields instead
    of recomputing path length and a hash per comparison. *)

val compare_entries : Route.entry -> Route.entry -> int
(** [compare_entries a b > 0] when [a] is preferred over [b]: the
    lexicographic order on the key [(local_pref, -path_len, -tiebreak,
    -neighbor)]. Total order over candidate entries for one prefix
    (entries built with the same salt). *)

val best : Route.entry list -> Route.entry option
(** Most preferred entry, [None] on the empty list. Entries carry their
    speaker's tiebreak rank (see {!Route.make_entry}): each AS breaks
    exact ties in its own idiosyncratic (but deterministic) order, which
    is what makes real forward and reverse routes asymmetric. Entries
    built without a salt fall back to lowest-neighbor-ASN. *)

val best_in_array : Route.entry option array -> Route.entry option
(** Most preferred among the [Some] candidates of an array (a speaker's
    adj-RIB-in for one prefix, one cell per session). Equal to {!best}
    of those candidates in any order, because {!compare_entries} is
    total over one prefix's candidates. *)
