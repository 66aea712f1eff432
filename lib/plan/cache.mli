(** The plan cache the orchestrator consults before computing a fresh
    decision: a memo of the decision's feasibility bit
    ([Splice.policy_reachable] around the blamed AS), keyed by (target,
    failure class).

    A lookup replays the memoized bit through [Decide.decide ~feasible],
    so a hit yields the byte-identical verdict a fresh decision would —
    the cache changes {e when} the answer is known, never {e what} it is.
    The bit depends only on the AS graph and its export policies, which
    nothing changes after set-up (link failures and router crashes drop
    sessions, not graph edges), so a plan never goes stale from churn.

    Every plan comes from {!Planner}: the offline sweep passed as
    [seed], or {!lookup}, which demand-plans each class it misses (still
    counted and returned as a miss) so the next lookup of that class
    hits. Plans are dropped only per AS:

    - {b breaker trips}: a plan poisoning a breaker-open AS is dropped at
      lookup and the fresh decision refuses at the breaker identically;
    - {b demotion}: when the poison watchdog rolls back a served poison,
      {!demote} drops every plan poisoning that AS and sends it back to
      compute-fresh permanently — a demoted AS is never served or
      re-planned.

    Counters surface as [plan.hits] / [plan.misses] /
    [plan.invalidations] (breaker drops) / [plan.demotions] metrics and
    every lookup emits a [plan.lookup] trace span when tracing is on. One
    cache per world — share-nothing, like every other per-world
    structure. *)

open Net
open Topology
open Lifeguard

type t

val create :
  ?seed:Plan_store.t ->
  config:Decide.config ->
  origin:Asn.t ->
  paths:Bgp.Path_store.t ->
  unit ->
  t
(** [seed] is the offline planner's failure map. [paths] interns
    demand-planned poison paths. *)

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
    diagnosis; the caller then computes fresh. *)

val demote : t -> poison:Asn.t -> reason:string -> unit
(** Watchdog feedback for a served poison that was rolled back: drop
    every plan poisoning [poison] and never serve one again. *)

val capture : t -> string
(** Deterministic one-line rendering of the cache's mutable state
    (size, counters, demotion set and log) for the recovery snapshot
    digest. Pure read; spaces in demotion reasons are folded to ['_'] so
    the line stays single-token. *)

val hits : t -> int
val misses : t -> int
val invalidations : t -> int
val demotions : t -> int
val size : t -> int
