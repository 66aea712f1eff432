(** A single BGP speaker (one AS).

    Pure protocol state machine: it holds the adj-RIB-in, loc-RIB, FIB and
    adj-RIB-out for its AS and, given an incoming update or a local
    origination change, hands each update it decides to send to an
    {!emitter} at once: no list of updates is built. Delivery timing (link
    delays, MRAI pacing) is the {!Network}'s job, which keeps this module
    synchronously testable: a test's emitter just collects the updates.

    Each directed session is one {!session} record at its sender. An
    update goes out with its session, and the network delivers it by
    pointer, as [receive s.peer ~session:s.back].

    An adj-RIB-in cell is the neighbor's {!Route.announcement} itself,
    kept by pointer ({!Route.no_route}, told apart by its empty path, where
    the session has none); an adj-RIB-out cell is the {!action} last sent
    on the session, a [Withdraw] where nothing is announced. Neither cell
    copies a fact of the session: the decision reads each route's local
    preference off its session as it compares, and {!Decision.compare}
    computes the tiebreak rank only on a tie in preference and length. A
    {!Route.entry} (the route and its neighbor) is built only when the
    loc-RIB best changes, so {!best}, the FIB, the FIB-commit hook and
    {!set_on_best_change} see one entry per best; the speaker itself
    keeps the index of the session whose cell is the best, and compares
    and exports through that session.

    The decision process is incremental on the receive path: the new best
    is the larger of the best's cell and the changed adj-RIB-in cell,
    compared as the full scan compares them, and the adj-RIB-in is
    scanned only when the cell that held the best got worse, while
    damping suppresses a route, or when the prefix is originated
    locally. The result
    is the full scan's, because {!Decision.compare} totally orders routes
    from distinct neighbors.

    Observability: every run of the decision process increments the
    [bgp.decisions] counter, and each loc-RIB change records the table's
    size into the [bgp.loc_rib] max-gauge (see {!Obs.Metrics}). *)

open Net
open Topology

type t

type action = Announce of Route.announcement | Withdraw of Prefix.t
(** An update destined to one neighbor. *)

type session = {
  asn : Asn.t;  (** The neighbor. *)
  rel : Relationship.t;  (** Our relationship to the neighbor. *)
  ix : int;  (** This session's position in {!sessions}. *)
  peer : t;  (** The neighbor's speaker. *)
  back : int;  (** The index of the reverse session at [peer]. *)
  mutable down : bool;  (** Written by the speaker only. *)
  mutable pending : action array;  (** The {!Network}'s MRAI batch. *)
  mutable pending_n : int;
}

type emitter = t -> session -> action -> unit
(** Where a speaker's updates go: [emit sp s update] sends [update] from
    [sp] on its session [s]. It is called as each update is decided; for
    one prefix, in ascending session order, and across prefixes in
    [Prefix.compare] order. Every announcement of one loc-RIB best is
    one physical [Announce] value. An emitter must not call back into a
    speaker; the {!Network}'s only queues the update for its MRAI batch
    or the wire. *)

val create :
  ?store:Path_store.t ->
  ?fib_epoch:int ref ->
  ?changes:int ref ->
  asn:Asn.t ->
  config:Policy.config ->
  unit ->
  t
(** A speaker for [asn], with no sessions until {!connect}. [store]
    holds the world's prefix ids — {!Network.create} passes one store to
    every speaker of a world; a standalone speaker (tests) defaults to a
    private store. The speaker keeps its per-prefix state in slots
    indexed by the store's {!Path_store.prefix_id}. Never share a store
    across worlds: lib/par worlds are share-nothing.
    [fib_epoch] ({!install_fib}) and [changes] ({!change_stamp}) are
    counters {!Network.create} shares among a world's speakers. Raises
    [Invalid_argument] when [config]'s [pref_jitter] is outside
    [\[0, 99\]]: a larger jitter could lift a route into the next
    relationship class. *)

val connect : t list -> neighbors:(Asn.t -> (Asn.t * Relationship.t) list) -> unit
(** Give each listed speaker, once, a session per neighbor [neighbors]
    names for it, in ascending neighbor ASN order (the order in which it
    emits one prefix's updates), each to the listed speaker of that ASN.
    Raises [Invalid_argument] on a neighbor not listed or not naming the
    speaker back, and on a speaker with sessions or prefixes already. *)

val sessions : t -> session array
(** The sessions, by [ix]. *)

val last_sent : t -> float array
(** The {!Network}'s MRAI clock of each session, by [ix]. *)

val asn : t -> Asn.t
(** The AS this speaker represents. *)

val originate :
  t ->
  emit:emitter ->
  now:float ->
  prefix:Prefix.t ->
  per_neighbor:(Asn.t -> As_path.t option) ->
  unit
(** Start (or change) originating [prefix]. [per_neighbor] gives the AS
    path announced to each neighbor — [Some [asn]] for a plain
    announcement, a poisoned or prepended path for remediation, or [None]
    to withhold the prefix from that neighbor (selective advertising /
    selective poisoning). The updates to send go to [emit]. *)

val stop_originating : t -> emit:emitter -> now:float -> prefix:Prefix.t -> unit
(** Withdraw a locally-originated prefix everywhere. *)

val receive : t -> emit:emitter -> now:float -> session:int -> action -> unit
(** Process one update arriving on the session of index [session]:
    import policy, loc-RIB decision, and the resulting exports. A
    rejected announcement acts as an implicit withdraw of that neighbor's
    previous route.

    The speaker keeps the announcement it is handed by pointer, as the
    session's adj-RIB-in cell, and builds nothing for it unless it
    becomes the best; a neighbor's export is one value per loc-RIB best,
    so the copies of one route in a world are mostly one physical
    value. *)

val session_down : t -> emit:emitter -> now:float -> neighbor:Asn.t -> unit
(** Drop every route learned from [neighbor] and stop exporting to it
    until {!session_up}. Both raise [Invalid_argument] on a non-neighbor. *)

val session_up : t -> emit:emitter -> now:float -> neighbor:Asn.t -> unit
(** Re-enable the session and produce the full-table advertisement for
    that neighbor. While route-flap damping suppresses no route (records
    that are only decaying do not count) this takes a fast
    path that exports the current loc-RIB toward only the revived
    neighbor; while one is suppressed it re-runs the full decision
    process per prefix (a suppression may lift lazily and move a best).
    Both paths advertise the same routes — including a poison applied by
    a same-instant {!originate} or {!refresh_prefix}, in either relative
    order. *)

val refresh_prefix : t -> emit:emitter -> prefix:Prefix.t -> unit
(** Force a re-advertisement of the current desired export for [prefix]
    toward every up neighbor, even when the adj-RIB-out says it was
    already sent. This is the idempotent re-announce primitive the
    remediation watchdog uses after a session reset or a lost update:
    the plain {!originate} diff is a no-op when our own book-keeping
    still holds the announcement the far side has since flushed. *)

val best : t -> Prefix.t -> Route.entry option
(** Current loc-RIB best route for exactly this prefix. *)

val change_stamp : t -> Prefix.t -> int
(** The [changes] counter's value at this prefix's latest loc-RIB change
    here ([0]: none), so a stamp above an earlier reading of the counter
    means the best changed since. *)

val fib_lookup : t -> Ipv4.t -> (Prefix.t * Route.entry) option
(** Longest-prefix match against the FIB — the data plane's view. By
    default the FIB tracks the loc-RIB atomically; a FIB-commit hook (set
    by the {!Network} when modeling RIB-to-FIB install latency) can delay
    the data plane behind the control plane, the window in which real
    routers blackhole or loop packets during convergence. The FIB entry
    of a prefix is a field of the speaker's slot for it; the match probes
    the world's prefix table ({!Path_store.longest_match}) longest length
    first and keeps the most specific prefix whose slot holds an entry. *)

val fib_find : t -> Ipv4.t -> Route.entry option
(** [Option.map snd (fib_lookup t ip)] without allocating: the per-hop
    lookup of the data plane's verdict walk. *)

val fib_entry : t -> Prefix.t -> Route.entry option
(** The FIB entry installed for exactly this prefix: the exact-match
    read that the longest-prefix-match tests compare {!fib_lookup}
    against. *)

val set_fib_commit_hook : t -> (Prefix.t -> Route.entry option -> unit) -> unit
(** Divert FIB installs: when set, loc-RIB changes invoke the hook
    instead of updating the FIB; the hook (or anyone) must eventually
    call {!install_fib}. *)

val install_fib : t -> Prefix.t -> Route.entry option -> unit
(** Install (or remove, on [None]) the data-plane entry for a prefix, and
    bump the FIB epoch. This is the only writer of the FIB. The entry is
    a route for that prefix: {!fib_lookup} reads the matched prefix off
    it. *)

val prefixes : t -> Prefix.t list
(** All prefixes with a loc-RIB entry. *)

val originated : t -> Prefix.t list
(** Prefixes this speaker currently originates locally. *)

val set_on_best_change : t -> (now:float -> Prefix.t -> Route.entry option -> unit) -> unit
(** Hook invoked after every loc-RIB change (used by route collectors and
    convergence instrumentation). *)

val set_reuse_scheduler : t -> (delay:float -> Prefix.t -> unit) -> unit
(** When route-flap damping suppresses a candidate, the speaker asks this
    hook to schedule a {!reevaluate} once the penalty will have decayed
    below the reuse threshold. Wired by the {!Network}. *)

val reevaluate : t -> emit:emitter -> now:float -> Prefix.t -> unit
(** Re-run the decision process for a prefix (e.g. after a damping
    penalty decays); the updates to send go to [emit]. *)

val suppressed_candidates : t -> Prefix.t -> Asn.t list
(** Neighbors whose route for this prefix is currently damped. *)
