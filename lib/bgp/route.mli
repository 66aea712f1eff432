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
(** Full attribute equality — used to suppress duplicate updates. O(1)
    ([==]) on announcements interned by one world's {!Path_store}. *)

type entry = {
  ann : announcement;
  neighbor : Asn.t;  (** The neighbor it was learned from (self if local). *)
  rel : Relationship.t;  (** What that neighbor is to us. *)
  local_pref : int;
  learned_at : float;  (** Simulation time of import. *)
  path_len : int;  (** Cached [As_path.length ann.path]. *)
  tiebreak : int;
      (** Cached per-speaker tiebreak rank (a 16-bit hash of the
          importing speaker's salt and [neighbor], standing in for the
          IGP-cost / router-id tiebreaks real routers apply; [0] when
          imported without a salt).
          Both caches exist because {!Decision.compare_entries} runs once
          per candidate per update — the hottest comparison in the
          simulator — and recomputing path length and hash rank there
          dominated the decision step. *)
}
(** An adj-RIB-in / loc-RIB entry. Build with {!make_entry} or
    {!local_entry_of} so the cached fields stay consistent with [ann]. *)

val make_entry :
  ?salt:int ->
  ann:announcement ->
  neighbor:Asn.t ->
  rel:Relationship.t ->
  local_pref:int ->
  learned_at:float ->
  unit ->
  entry
(** Smart constructor: fills [path_len] and [tiebreak] from [ann],
    [salt] and [neighbor]. [salt] is the importing speaker's tiebreak
    salt (typically its ASN); omitting it gives rank [0], i.e. the
    plain lowest-neighbor-ASN final tiebreak. *)

val local_entry_of : ann:announcement -> self:Asn.t -> now:float -> entry
(** The locally-originated route for an announcement: highest
    preference, treated as customer-learned for export purposes
    (exported to everyone). Taking a pre-built (typically interned)
    announcement lets a speaker reuse one shared local announcement
    across refreshes. *)

val is_local : entry -> bool
(** Whether the entry is a local origination (neighbor = self). *)
