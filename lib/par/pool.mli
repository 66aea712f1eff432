(** A fixed-size worker pool over OCaml 5 domains (stdlib only: [Domain],
    [Mutex], [Condition] — no domainslib).

    Built for the experiment harness: hundreds of independent,
    deterministic trial thunks that each own their PRNG, topology and
    simulation engine. The pool executes them on [jobs] domains (the
    caller of {!run_trials} and [jobs - 1] workers) and reassembles
    results in submission order, so a run with any number of jobs is
    bit-identical to a sequential run — parallelism changes only the
    wall clock, never the output. That contract holds only if the thunks
    share no mutable state, which is the caller's side of the bargain. *)

type t
(** A pool of worker domains. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — one domain per available
    core. *)

val run_trials : t -> (unit -> 'a) list -> 'a list
(** [run_trials t thunks] runs every thunk, distributing the calls over
    the pool's workers and the caller, which takes tasks until none is
    queued and then waits for the rest. It returns the results in the
    order of [thunks] (NOT completion order). Blocks until the whole
    batch is done.

    If one or more thunks raise, the exception of the {e earliest
    submitted} failing one is re-raised in the caller once the batch has
    drained — which failure surfaces does not depend on scheduling.

    Must be called from the domain that owns the pool, not from inside a
    task running on the pool, and not after the pool is shut down
    ([Invalid_argument]). *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool on [jobs] domains
    (default {!default_jobs}; values [< 1] are clamped to 1): it spawns
    [jobs - 1] workers, and the caller of {!run_trials} is the last one.
    With [jobs = 1] no domain is spawned at all and every submission
    runs inline on the caller — the legacy sequential path. The pool is
    shut down afterwards (outstanding tasks finish first, workers are
    joined), whether [f] returns or raises. *)
