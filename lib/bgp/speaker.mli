(** A single BGP speaker (one AS).

    Pure protocol state machine: it holds the adj-RIB-in, loc-RIB, FIB and
    adj-RIB-out for its AS and, given an incoming update or a local
    origination change, returns the updates that should be sent to
    neighbors. Delivery timing (link delays, MRAI pacing) is the
    {!Network}'s job, which keeps this module synchronously testable.

    Observability: every run of the decision process increments the
    [bgp.decisions] counter, and each loc-RIB change records the table's
    size into the [bgp.loc_rib] max-gauge (see {!Obs.Metrics}). *)

open Net
open Topology

type t

type action = Announce of Route.announcement | Withdraw of Prefix.t
(** An update destined to one neighbor. *)

val create :
  ?store:Path_store.t ->
  ?fib_epoch:int ref ->
  asn:Asn.t ->
  config:Policy.config ->
  neighbors:(Asn.t * Relationship.t) list ->
  unit ->
  t
(** A speaker for [asn] with the given neighbor sessions, kept in
    ascending neighbor ASN order (the order {!Network.create} passes
    them in): every list of updates the speaker returns lists neighbors
    in that order. [store] is the
    world's path/announcement interner — {!Network.create} passes one
    store to every speaker of a world so their RIBs share physical values;
    a standalone speaker (tests) defaults to a private store. The speaker
    keeps its per-prefix state in slots indexed by the store's
    {!Path_store.prefix_id}. Never share a store across worlds: lib/par
    worlds are share-nothing.
    [fib_epoch] is the counter {!install_fib} bumps; {!Network.create}
    hands one counter to every speaker of a world (default: a private
    one). *)

val path_store : t -> Path_store.t
(** The interner this speaker stores paths and announcements in. *)

val asn : t -> Asn.t
(** The AS this speaker represents. *)

val originate :
  t -> now:float -> prefix:Prefix.t -> per_neighbor:(Asn.t -> As_path.t option) -> (Asn.t * action) list
(** Start (or change) originating [prefix]. [per_neighbor] gives the AS
    path announced to each neighbor — [Some [asn]] for a plain
    announcement, a poisoned or prepended path for remediation, or [None]
    to withhold the prefix from that neighbor (selective advertising /
    selective poisoning). Returns the updates to send. *)

val stop_originating : t -> now:float -> prefix:Prefix.t -> (Asn.t * action) list
(** Withdraw a locally-originated prefix everywhere. *)

val receive : t -> now:float -> from:Asn.t -> action -> (Asn.t * action) list
(** Process one update from a neighbor: import policy, loc-RIB decision,
    and the resulting exports. A rejected announcement acts as an implicit
    withdraw of that neighbor's previous route. Raises [Invalid_argument]
    when [from] is not a neighbor (so do {!session_down} and
    {!session_up}).

    An announcement whose path is interned is taken as this speaker's
    store's canonical value and is not interned again: every speaker
    interns what it sends, and {!Network} re-interns what crosses a
    shard boundary. An uninterned one (built directly, as tests do) is
    interned here. *)

val session_down : t -> now:float -> neighbor:Asn.t -> (Asn.t * action) list
(** Drop every route learned from [neighbor] and stop exporting to it
    until {!session_up}. *)

val session_up : t -> now:float -> neighbor:Asn.t -> (Asn.t * action) list
(** Re-enable the session and produce the full-table advertisement for
    that neighbor. When {!damping_pending} is false this takes a fast
    path that exports the current loc-RIB toward only the revived
    neighbor; with damping state live it re-runs the full decision
    process per prefix (a suppression may lift lazily and move a best).
    Both paths advertise the same routes — including a poison applied by
    a same-instant {!originate} or {!refresh_prefix}, in either relative
    order. *)

val damping_pending : t -> bool
(** Whether any route-flap damping records are live (suppressed or still
    decaying). While true, {!session_up} uses its conservative slow
    path. *)

val refresh_prefix : t -> prefix:Prefix.t -> (Asn.t * action) list
(** Force a re-advertisement of the current desired export for [prefix]
    toward every up neighbor, even when the adj-RIB-out says it was
    already sent. This is the idempotent re-announce primitive the
    remediation watchdog uses after a session reset or a lost update:
    the plain {!originate} diff is a no-op when our own book-keeping
    still holds the announcement the far side has since flushed. *)

val best : t -> Prefix.t -> Route.entry option
(** Current loc-RIB best route for exactly this prefix. *)

val fib_lookup : t -> Ipv4.t -> (Prefix.t * Route.entry) option
(** Longest-prefix match against the FIB — the data plane's view. By
    default the FIB tracks the loc-RIB atomically; a FIB-commit hook (set
    by the {!Network} when modeling RIB-to-FIB install latency) can delay
    the data plane behind the control plane, the window in which real
    routers blackhole or loop packets during convergence. The FIB entry
    of a prefix is a field of the speaker's slot for it; the match walks
    the world's prefix trie ({!Path_store.longest_match}) and keeps the
    most specific prefix whose slot holds an entry. *)

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
    bump the FIB epoch. This is the only writer of the FIB. *)

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

val reevaluate : t -> now:float -> Prefix.t -> (Asn.t * action) list
(** Re-run the decision process for a prefix (e.g. after a damping
    penalty decays); returns the updates to send. *)

val suppressed_candidates : t -> Prefix.t -> Asn.t list
(** Neighbors whose route for this prefix is currently damped. *)
