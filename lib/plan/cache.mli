(** The plan cache the orchestrator consults before computing a fresh
    decision, plus its invalidation and staleness layers.

    A lookup replays the memoized feasibility bit through
    [Decide.decide ~feasible], so a hit yields the byte-identical verdict
    a fresh decision would — the cache changes {e when} the answer is
    known, never {e what} it is. Two things stop a plan being served:

    - {b topology churn}: a changed [fingerprint] (wired by the fleet to
      the world's fault counters) flushes the whole map;
    - {b breaker trips}: a plan poisoning a breaker-open AS is dropped at
      lookup and the fresh decision refuses at the breaker identically.

    Staleness: when the poison watchdog's outcome diverges from the plan
    (rollback, re-announce budget exhausted), {!note_outcome} demotes the
    poisoned AS back to compute-fresh permanently and records the reason
    — a demoted AS is never served {e or} re-memoized.

    Misses are repaired twice over: {!lookup} itself demand-plans the
    missed class with {!Planner.remedy_for_class} (still counted and
    returned as a miss this round), and {!record} lets the orchestrator
    hand back each fresh verdict for memoization (except age-gated
    [Wait]s, which carry no feasibility information) — so recurring
    outages become hits even beyond the offline planner's enumeration.

    Counters surface as [plan.hits] / [plan.misses] /
    [plan.invalidations] / [plan.demotions] metrics and every lookup
    emits a [plan.lookup] trace span when tracing is on. One cache per
    world — share-nothing, like every other per-world structure. *)

open Net
open Topology
open Lifeguard

type t

val create :
  ?fingerprint:(unit -> int) ->
  ?seed:Plan_store.t ->
  config:Decide.config ->
  origin:Asn.t ->
  paths:Bgp.Path_store.t ->
  unit ->
  t
(** [fingerprint] is sampled at creation and on every lookup; any change
    flushes the map (topology-churn invalidation). [seed] is the offline
    planner's failure map. [paths] interns memoized poison paths. *)

val lookup :
  t ->
  As_graph.t ->
  now:float ->
  target:Asn.t ->
  diagnosis:Isolation.diagnosis ->
  outage_age:float ->
  breaker_open:(Asn.t -> bool) ->
  Decide.verdict option
(** [Some verdict] on a hit — byte-identical to the fresh decision.
    [None] on miss, demoted class, breaker conflict, or unplannable
    diagnosis; the caller then computes fresh (and should {!record}). *)

val record : t -> target:Asn.t -> diagnosis:Isolation.diagnosis -> verdict:Decide.verdict -> unit
(** Memoize a fresh verdict so the next same-class outage hits. [Wait]
    verdicts and demoted classes are not memoized. *)

val note_outcome : t -> poison:Asn.t -> [ `Confirmed | `Diverged of string ] -> unit
(** Watchdog feedback for a served plan: [`Confirmed] keeps it,
    [`Diverged reason] demotes every plan poisoning that AS. *)

val capture : t -> string
(** Deterministic one-line rendering of the cache's mutable state
    (fingerprint, size, counters, demotion set and log) for the recovery
    snapshot digest. Pure read; spaces in demotion reasons are folded to
    ['_'] so the line stays single-token. *)

val hits : t -> int
val misses : t -> int
val invalidations : t -> int
val demotions : t -> int
val size : t -> int
val demotion_log : t -> (Asn.t * string) list
(** Oldest first. *)

val plans : t -> Plan_store.t
