(** Per-AS routing policy: import filtering, preference assignment and
    export filtering.

    The defaults implement the standard Gao–Rexford economics (prefer
    customer routes, export provider/peer routes only to customers) plus
    strict loop prevention. The two quirks the paper encountered in the
    wild (§7.1) that poisoning depends on are configuration knobs: ASes
    that accept their own number in a path up to [k] times (defeated by
    inserting it twice), and ASes that reject customer announcements
    containing one of their peers (Cogent-style filtering that limited
    poisoning via Georgia Tech). Announcements carry no tags for other
    quirks to act on: the paper (§2.3) rejects tag-based avoidance
    signals. *)

open Net
open Topology

type damping = {
  penalty_per_flap : float;  (** Added on each route change (RFC 2439 uses 1000). *)
  suppress_threshold : float;  (** Suppress the route above this (2000). *)
  reuse_threshold : float;  (** Re-enable once decayed below this (750). *)
  half_life : float;  (** Exponential decay half-life, seconds (900). *)
}
(** Route-flap damping parameters. The paper had to keep each poisoned
    announcement in place for 90 minutes precisely to stay clear of
    this mechanism: flapping a prefix quickly accumulates penalty until
    routers suppress it entirely. *)

val default_damping : damping

type config = {
  loop_limit : int;
      (** Reject a path containing our own ASN [loop_limit] or more times.
          1 = standard BGP loop prevention; 2 models ASes like AS286 that
          allow one occurrence for multi-site setups. *)
  reject_peers_in_customer_paths : bool;
      (** Cogent-style: refuse updates from customers whose path contains
          one of our peers. *)
  damping : damping option;
      (** Enable RFC 2439-style route-flap damping ([None] = off, the
          default — damping deployment declined sharply after 2006, but
          enough remained in 2012 to constrain the paper's announcement
          schedule). *)
  pref_jitter : int;
      (** Deterministic per-neighbor perturbation added to the
          relationship-based local preference, in [\[0, pref_jitter\]].
          Stands in for the per-peer traffic engineering real ISPs apply
          within a relationship class; non-zero values make forward and
          reverse AS paths asymmetric, as on the real Internet. 0 (the
          default) keeps preferences purely relationship-based. Must stay
          below the 100-point class separation. *)
}

val default : config
(** Strict loop prevention, no quirks, no damping, no jitter. *)

val local_pref_for : config -> self:Asn.t -> neighbor:Asn.t -> rel:Relationship.t -> int
(** The local preference assigned to a route from this neighbor,
    including the configured jitter. *)

type import_verdict = Accepted | Rejected of string
(** Acceptance, or a rejection with the reason (for logs and tests). *)

val import :
  config ->
  self:Asn.t ->
  peers:'peers ->
  is_peer:('peers -> Asn.t -> bool) ->
  rel:Relationship.t ->
  Route.announcement ->
  import_verdict
(** Import policy for an announcement received from a neighbor that is
    [rel] to [self]. Checks loop prevention against [loop_limit], then
    the Cogent quirk, which asks [is_peer peers a] whether AS [a] is a
    settlement-free peer of [self]. The question takes its data as an
    argument, so a caller can pass a top-level function and allocate
    nothing per call. *)

(** Export is split in two so a speaker syncing one prefix toward many
    neighbors builds the outgoing announcement once: the loc-RIB [entry]
    goes to a neighbor when {!export_allowed} holds, as {!export_ann}.
    Export rules are the same for every AS. *)

val export_allowed : entry:Route.entry -> to_neighbor:Asn.t -> to_rel:Relationship.t -> bool
(** Whether [entry] is exported to the neighbor: Gao–Rexford valley-free
    export ({!Relationship.export_ok}) and never back to the neighbor the
    route was learned from. Cheap — no allocation. *)

val export_ann : self:Asn.t -> entry:Route.entry -> Route.announcement
(** The announcement sent when {!export_allowed} holds: [entry]'s,
    with [self] prepended unless the entry is local. The same toward every
    permitted neighbor. *)
