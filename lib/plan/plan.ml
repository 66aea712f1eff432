(** Precomputed remediation plans — fast-reroute for poisoning.

    Turns LIFEGUARD's repair pipeline into a cache hit: an offline
    {!Planner} enumerates (target, failure-class) pairs over a world and
    precomputes each remediation into a deterministic {!Plan_store}; a
    runtime {!Cache} serves them to the orchestrator ahead of the fresh
    decision process. A plan depends only on the static AS graph, so it
    never goes stale from faults; the cache drops plans against
    circuit-breaker-open ASes and demotes those whose watchdog outcome
    diverges. Keys are {!Failure_class} values — the shape of an
    isolation verdict. *)

module Failure_class = Failure_class
module Plan_store = Plan_store
module Planner = Planner
module Cache = Cache
