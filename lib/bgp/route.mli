(** Route representations: the announcement on the wire and the RIB entry
    a speaker stores after import. *)

open Net

type announcement = {
  prefix : Prefix.t;
  path : As_path.t;  (** Nearest AS first; the sender's ASN is the head. *)
}
(** An announcement carries no other attributes: the reproduction steers
    routes by AS path alone (poisoning and prepending). *)

val announcement : prefix:Prefix.t -> path:As_path.t -> announcement

val announcement_equal : announcement -> announcement -> bool
(** Full attribute equality — used to suppress duplicate updates. O(1):
    [==] on one physical value (what a neighbor's export usually is), and
    otherwise the paths' cached hashes ({!As_path.equal}). *)

type entry = {
  ann : announcement;
  neighbor : Asn.t;  (** The neighbor it was learned from; the speaker itself if local. *)
}
(** A loc-RIB entry: the best route of one prefix at one speaker, as
    {!Speaker.best}, the FIB, route collectors and the data plane see it.
    A speaker's adj-RIB-in keeps the neighbors' announcements themselves
    and builds an entry only when its best changes. Everything else the
    decision and export read (relationship, preference, tiebreak rank) is
    a fact of the session the route came in on, so the speaker reads it
    there. A local origination is the entry whose [neighbor] is the
    speaker's own ASN. *)

val tiebreak_rank : salt:int -> Asn.t -> int
(** The 16-bit tiebreak rank of a neighbor for a speaker with this salt
    (its ASN): an explicit integer mix, so decision tie-breaks are pinned
    by this source alone. *)

val no_route : announcement
(** The empty adj-RIB-in cell: what a {!Speaker} stores for a session
    with no route, in place of an option box. Its path is empty, which
    no real announcement's is ({!announcement} refuses one). *)

val is_route : announcement -> bool
(** Whether the cell holds a real announcement, not {!no_route}: a test
    of the path, so it also holds for a copy of {!no_route}, as in a
    world copied with Marshal; never compare with {!no_route} by [==]. *)
