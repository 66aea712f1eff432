(** The inter-domain control plane: all speakers of a topology wired
    through the discrete-event engine.

    Updates travel with a per-link propagation delay and are paced by a
    per-session MRAI timer with coalescing (the latest pending update per
    prefix wins), which is what produces the realistic path-exploration
    and convergence behaviour measured in Fig. 6 of the paper. The network
    also hosts route collectors — passive feeds recording each peer's
    loc-RIB changes with timestamps — which is how the paper (and this
    reproduction) measures convergence and poisoning efficacy. A
    collector keeps its records only once a reader has started its log
    ({!Collector.clear}); a peer's latest route is the peer's own.

    An update travels as its sender's {!Speaker.session} record, which
    holds the receiving speaker, the MRAI batch and the MRAI clock's
    index, so delivery does no table lookup and no session search.

    Observability: deliveries feed the [bgp.delivered],
    [bgp.updates.announce], [bgp.updates.withdraw] and [bgp.mrai_rounds]
    counters, and — when tracing is on — emit [bgp.deliver] and
    [bgp.mrai] trace events stamped with simulation time (see
    {!Obs.Trace}). *)

open Net
open Topology

type t

type update_record = {
  time : float;
  speaker : Asn.t;  (** Whose loc-RIB changed. *)
  prefix : Prefix.t;
  route : Route.entry option;  (** The new best route; [None] = lost. *)
}

val create :
  engine:Sim.Engine.t ->
  graph:As_graph.t ->
  ?config_of:(Asn.t -> Policy.config) ->
  ?mrai:float ->
  ?fib_install_delay:float ->
  ?shards:int ->
  ?record_barriers:bool ->
  unit ->
  t
(** Build a speaker per AS of [graph]. [config_of] supplies per-AS policy
    (default {!Policy.default}); every directed link's one-way update
    propagation delay is a deterministic 50–250 ms derived from the ASN
    pair; [mrai] the min-route-advertisement interval (default 30 s,
    applied per session with per-session deterministic jitter).
    [fib_install_delay] (default 0: atomic) delays data-plane FIB commits
    behind loc-RIB changes by up to that many seconds (deterministic
    per-AS), modeling the RIB-to-FIB latency that causes transient
    blackholes and micro-loops during convergence.

    [shards] switches the network into {e sharded mode}, which no
    product path uses: it is kept for the benchmark's barrier-cost
    figures. The AS graph is partitioned into that many parts
    ({!Topology.Partition}, fixed seed, cut-minimizing), each with its
    own event queue and path store, advanced one after another between
    deterministic time barriers ({!Shard.Barrier}) driven from [engine]
    (which becomes the {e control} engine). Every BGP delivery is
    exchanged at barriers in the canonical [(arrival, src, dst, prefix)]
    order, so results are byte-identical at any shard count — but they
    may differ from the unsharded ([?shards] absent) engine, whose
    delivery interleaving at equal timestamps follows scheduling order
    instead. [record_barriers] (tests only) retains per-barrier history
    rows for {!barrier_history}. *)

val barrier_count : t -> int
(** Barriers executed so far ([0] for unsharded networks). *)

val cut_message_count : t -> int
(** Updates that crossed a shard boundary so far ([0] unsharded). *)

val barrier_history : t -> (float * int * int) list
(** With [record_barriers]: per-barrier [(window start, messages
    injected, cross-shard messages injected)] rows, oldest first. *)

val engine : t -> Sim.Engine.t
(** The shared discrete-event engine the network schedules on. *)

val path_store : t -> Path_store.t
(** This world's prefix ids. Unsharded, {!create} builds one store and
    hands it to every speaker; in sharded mode each shard has its own,
    and this is the first shard's. It is never shared across worlds
    (lib/par worlds are share-nothing). *)

val graph : t -> As_graph.t
(** The annotated AS topology the speakers were built from. *)

val announce :
  t -> origin:Asn.t -> prefix:Prefix.t -> ?per_neighbor:(Asn.t -> As_path.t option) ->
  unit -> unit
(** Originate (or re-originate with new paths) [prefix] at [origin], at
    the current simulation time. Without [per_neighbor] every neighbor
    receives the plain path [\[origin\]]. Use [per_neighbor] for
    prepending, poisoning and selective advertising. Run the engine to
    propagate. *)

val withdraw : t -> origin:Asn.t -> prefix:Prefix.t -> unit
(** Withdraw an originated prefix. *)

val refresh : t -> origin:Asn.t -> prefix:Prefix.t -> unit
(** Idempotently re-advertise [prefix]'s current origination toward every
    up neighbor, bypassing the adj-RIB-out diff (see
    {!Speaker.refresh_prefix}). Use after a fault may have flushed or
    lost the announcement downstream: re-calling {!announce} with the
    same paths is a no-op, this is not. MRAI pacing still applies. *)

val owner_of_address : t -> Ipv4.t -> (Prefix.t * Asn.t) option
(** The most specific originated prefix covering the address, with its
    originating AS — whose hosts answer probes sent to that address. *)

val speaker : t -> Asn.t -> Speaker.t
(** Direct access to an AS's speaker (read-mostly: RIB inspection). On a
    sharded network this is raw access: the shards catch up to the
    control clock only at a control-plane call ({!announce},
    {!best_route}, {!message_count}, …), so make one first if the
    barrier may be behind. *)

val best_route : t -> Asn.t -> Prefix.t -> Route.entry option
(** [best_route t asn prefix] is [asn]'s loc-RIB best route for exactly
    [prefix] ({!Speaker.best} through the network). *)

val fib_lookup : t -> Asn.t -> Ipv4.t -> (Prefix.t * Route.entry) option
(** Longest-prefix match against [asn]'s FIB — the data-plane view,
    which can lag the loc-RIB when FIB install latency is modeled. *)

val fib_find : t -> Asn.t -> Ipv4.t -> Route.entry option
(** {!fib_lookup} without the matched prefix, allocating nothing
    ({!Speaker.fib_find} after the same catch-up of the shards). *)

val fib_epoch : t -> int
(** The world's forwarding epoch: a counter bumped by every
    {!Speaker.install_fib} of every speaker — immediate and delayed
    installs alike, since that function is the only FIB writer. While it
    is unchanged, every {!fib_lookup} answers as it did. Reading it
    first catches the shards up to the control clock, so a sharded
    network never reports the epoch of a FIB state the control clock
    has already moved past. *)

val run_until_quiet : ?timeout:float -> t -> unit
(** Drive the engine until no BGP events remain queued (or [timeout]
    simulated seconds elapsed, default 3600). Other events scheduled on
    the same engine keep it busy, so convergence experiments should use a
    dedicated engine or the timeout. *)

val fail_link : t -> a:Asn.t -> b:Asn.t -> unit
(** Control-plane link failure: both sessions drop, routes withdraw. *)

val restore_link : t -> a:Asn.t -> b:Asn.t -> unit
(** Bring the sessions back; full-table re-advertisement follows. *)

val fail_node : t -> Asn.t -> unit
(** All sessions of an AS drop (router death, visible to BGP). *)

val restore_node : t -> Asn.t -> unit

val crash_node : t -> Asn.t -> unit
(** Router crash with loc-RIB loss: every session drops {e and} the AS
    forgets its local originations. Learned routes were already flushed
    by the session drops; after {!restore_node} and {!reoriginate} the
    speaker re-learns the world from its neighbors and re-originates
    from the administrative intent recorded by {!announce}. *)

val reoriginate : t -> Asn.t -> unit
(** Re-announce every prefix the AS is configured to originate, with
    its last-announced paths: the half of a crashed router's restart
    that {!restore_node} does not do. Callers (the fault injector)
    restore sessions selectively first. *)

val set_link_faults :
  t -> (from:Asn.t -> to_:Asn.t -> [ `Deliver | `Drop | `Duplicate ]) option -> unit
(** Install (or clear, with [None]) the wire-fault hook. It is sampled
    once per scheduled update message, after MRAI batching: [`Drop]
    silently loses the message, [`Duplicate] delivers it twice (the copy
    trailing by half a propagation delay). With no hook installed the
    wire is perfectly reliable and behavior is byte-identical to a
    build without fault injection. *)

(** Passive feeds recording peers' loc-RIB changes.

    A collector retains only what a reader reads. Every collector keeps
    a count of the records it has seen ({!count}: the fleet's
    [collector_updates]); its peers' latest routes ({!route_view}: the
    remediation watchdog) are their own bests. The record list behind
    {!since} exists only once a reader starts it with
    {!clear}, which every convergence measurement does before its event
    ({!Convergence.analyze} reads {!since}). A collector nobody clears,
    such as the watchdog's or a fleet world's, retains no records. *)
module Collector : sig
  type net := t
  type t

  val attach : net -> peers:Asn.t list -> t
  (** Record every loc-RIB change of each peer from now on. The
      collector subscribes to each peer once, however often [peers]
      names it; a change of an AS that is not a peer reaches no
      collector, and a name outside the world is never recorded. The
      log is not started: call {!clear} to start it. *)

  val since : t -> float -> update_record list
  (** The records since the latest {!clear} with [time >=] the given
      instant, oldest first; [[]] if the log was never started. *)

  val count : t -> int
  (** Records seen since {!attach}, whether or not the log keeps them;
      {!clear} does not reset it. *)

  val clear : t -> unit
  (** Drop every record, move the mark (below) to now, and start the
      log: from now on the collector keeps each record for {!since}. *)

  val route_view : t -> peer:Asn.t -> prefix:Prefix.t -> Route.entry option option
  (** The peer's route as of its latest record since {!attach} or the
      latest {!clear} — [None]: no such record; [Some None]: the peer
      lost the route, which the watchdog tells from "no data". That is
      [Some (]{!Speaker.best}[)] exactly when the peer is subscribed and
      its {!Speaker.change_stamp} is above the world's change counter at
      that attach or clear, so no table keeps it. *)
end

val message_count : t -> int
(** Total update messages delivered since creation (load accounting). *)
