(** A fixed-size worker pool over OCaml 5 domains (stdlib only: [Domain],
    [Mutex], [Condition] — no domainslib).

    Built for the experiment harness: hundreds of independent,
    deterministic trial thunks that each own their PRNG, topology and
    simulation engine. The pool executes them on [jobs] domains (the
    caller of {!map} and [jobs - 1] workers) and reassembles results in
    submission order, so a run with any number of jobs is bit-identical
    to a sequential run — parallelism changes only the wall clock, never
    the output. That contract holds only if
    the thunks share no mutable state, which is the caller's side of the
    bargain. *)

type t
(** A pool of worker domains. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — one domain per available
    core. *)

val create : ?jobs:int -> unit -> t
(** A pool that runs on [jobs] domains (default {!default_jobs}; values
    [< 1] are clamped to 1): it spawns [jobs - 1] workers, and the caller
    of {!map} is the last one. With [jobs = 1] no domain is spawned at
    all and every submission runs inline on the caller — the legacy
    sequential path. *)

val jobs : t -> int
(** The domain count the pool was created with, the caller included. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] applies [f] to every element of [xs], distributing the
    calls over the pool's workers and the caller, which takes tasks until
    none is queued and then waits for the rest. It returns the results in
    the order of [xs] (NOT completion order). Blocks until the whole
    batch is done.

    If one or more applications raise, the exception of the {e earliest
    submitted} failing element is re-raised in the caller once the batch
    has drained — which failure surfaces does not depend on scheduling.

    Must be called from the domain that owns the pool, not from inside a
    task running on the pool. *)

val run_trials : t -> (unit -> 'a) list -> 'a list
(** [run_trials t thunks] is [map t (fun f -> f ()) thunks]: execute
    pre-built trial closures, results in submission order. *)

val shutdown : t -> unit
(** Join all workers. Outstanding tasks finish first; calling {!map}
    after shutdown raises [Invalid_argument]. Idempotent. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down
    afterwards, whether [f] returns or raises. *)
