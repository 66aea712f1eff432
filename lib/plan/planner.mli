(** The offline planner: enumerate failure classes and precompute each
    remediation before any outage happens.

    For every monitored target, the planner walks the policy-compliant
    path between target and origin, treats each intermediate AS as a
    potential blame verdict, and answers the decision process's
    feasibility question ahead of time: would a valley-free path around
    that AS still exist? Feasible classes get a poison remedy (the
    [O-A-O] path, built once per remedy — selective when the blamed AS
    is one of the origin's direct providers), infeasible ones a
    hopeless remedy carrying the exact reason string the fresh decision
    would produce, and forward-direction classes the egress-switch advice.

    Every entry point here is effect-pure — no clock, no [Random], no
    module-level mutable state reachable — certified by the
    [LG-PLAN-STALE] lint rule. Purity is what makes a plan trustworthy:
    rebuilding the map from the same graph always yields byte-identical
    plans, and nothing changes the graph after set-up (faults drop
    sessions, not edges), so a plan stays valid for the world's
    lifetime.

    Within one call, the valley-free searches are memoized per target:
    each (source, destination, avoided AS) question is asked once, an
    endpoint is never avoidable, and an AS off the unconstrained
    target-to-origin path needs no search, since that path avoids it.
    The memo is made inside the call and dropped with it, as is the one
    {!Topology.Splice.context} the call's searches share, so purity
    holds and no answer outlives the graph it was computed from. *)

open Net
open Topology
open Lifeguard

val candidate_blames : As_graph.t -> origin:Asn.t -> target:Asn.t -> Asn.t list
(** The blame verdicts isolation is likely to produce for this target:
    intermediate ASes of the policy-compliant paths in both directions
    between target and origin, plus the splice alternate around each
    primary intermediate (covering post-reroute blames). Ascending,
    duplicate-free. *)

val remedy_for_class :
  As_graph.t ->
  origin:Asn.t ->
  target:Asn.t ->
  cls:Failure_class.t ->
  Plan_store.remedy
(** The remedy one failure class deserves, honoring the class's
    direction: poison (or hopeless) for reverse/bidirectional blames,
    egress-switch advice for forward failures, and the decision
    process's verbatim stand-down reasons otherwise. Used by the cache
    to demand-plan classes the offline sweep did not anticipate. *)

val build :
  graph:As_graph.t ->
  store:Bgp.Path_store.t ->
  plan:Remediate.plan ->
  targets:Asn.t list ->
  Plan_store.t
(** The full failure map for [targets]: every (target, failure-class)
    pair with its precomputed remedy, in the store's canonical order.
    [store] (the world's prefix ids) is not read: a plan's poison paths
    need no per-world table.
    The argument stays until the benchmark harness, which passes it,
    changes. *)
