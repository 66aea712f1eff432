(** Route representations: the announcement on the wire and the RIB entry
    a speaker stores after import. *)

open Net
open Topology

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
  neighbor : Asn.t;  (** The neighbor it was learned from (self if local). *)
  rel : Relationship.t;  (** What that neighbor is to us. *)
  local_pref : int;
  path_len : int;  (** Cached [As_path.length ann.path]. *)
  tiebreak : int;
      (** Per-speaker tiebreak rank ({!tiebreak_rank} of the importing
          speaker's salt and [neighbor], standing in for the IGP-cost /
          router-id tiebreaks real routers apply; [0] for local routes
          and where no salt applies).
          Both fields are cached because {!Decision.compare_entries}
          runs once per candidate per update — the hottest comparison in
          the simulator — and recomputing path length and hash rank
          there dominated the decision step. *)
}
(** An adj-RIB-in / loc-RIB entry. Build with {!make_entry} or
    {!local_entry_of} so the cached fields stay consistent with [ann]. *)

val tiebreak_rank : salt:int -> Asn.t -> int
(** The 16-bit tiebreak rank of a neighbor for a speaker with this salt
    (typically its ASN): an explicit integer mix, so decision tie-breaks
    are pinned by this source alone. *)

val make_entry :
  ann:announcement ->
  neighbor:Asn.t ->
  rel:Relationship.t ->
  local_pref:int ->
  tiebreak:int ->
  entry
(** Smart constructor: fills [path_len] from [ann]. [tiebreak] is the
    rank to store, usually {!tiebreak_rank}; [0] gives the plain
    lowest-neighbor-ASN final tiebreak. *)

val local_entry_of : ann:announcement -> self:Asn.t -> entry
(** The locally-originated route for an announcement: highest
    preference, treated as customer-learned for export purposes
    (exported to everyone). Taking a pre-built announcement lets a
    speaker reuse one shared local announcement across refreshes. *)

val is_local : entry -> bool
(** Whether the entry is a local origination (neighbor = self). *)

val no_route : entry
(** The empty adj-RIB-in cell: what a {!Speaker} stores for a session
    with no route, in place of an option box. {!Decision.compare_entries}
    ranks it below every real entry. *)

val is_route : entry -> bool
(** Whether the entry is a real route, not {!no_route}. A field test,
    so it also holds for a copy of {!no_route}, as in a world copied with
    Marshal; never compare with {!no_route} by [==]. *)
