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
          and where no salt applies). *)
}
(** A loc-RIB entry: the best route of one prefix at one speaker, as
    {!Speaker.best}, the FIB, route collectors and the data plane see it.
    A speaker's adj-RIB-in keeps the neighbors' announcements themselves
    and builds an entry only when its best changes; every field but
    [ann] is a fact of the session the route came in on. Build with
    {!make_entry} or {!local_entry_of} so [path_len] stays consistent
    with [ann]. *)

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

val no_route : announcement
(** The empty adj-RIB-in cell: what a {!Speaker} stores for a session
    with no route, in place of an option box. Its path is empty, which
    no real announcement's is ({!announcement} refuses one). *)

val is_route : announcement -> bool
(** Whether the cell holds a real announcement, not {!no_route}: a test
    of the path, so it also holds for a copy of {!no_route}, as in a
    world copied with Marshal; never compare with {!no_route} by [==]. *)
