(** One-shot trial parallelism over OCaml 5 domains (stdlib only:
    [Domain] and [Atomic], no domainslib).

    Built for the experiment harness: independent, deterministic trial
    thunks that each own their PRNG, topology and simulation engine.
    Results come back in submission order, so a run with any number of
    jobs is bit-identical to a sequential run: parallelism changes only
    the wall clock, never the output. That holds only if the thunks
    share no mutable state, which is the caller's side of the bargain. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: one domain per available
    core. *)

val run_trials : jobs:int -> (unit -> 'a) list -> 'a list
(** [run_trials ~jobs thunks] runs every thunk and returns the results
    in the order of [thunks] (NOT completion order).

    With [jobs <= 1] it is [List.map] over the thunks on the caller: no
    domain is spawned. Otherwise it spawns [min jobs n - 1] worker
    domains for [n] thunks; the caller and the workers claim thunks in
    submission order from one shared counter until none is left, and
    every worker is joined before it returns. So [jobs = N] runs on at
    most N domains, the caller included.

    If one or more thunks raise, the exception of the {e earliest
    submitted} failing one is re-raised once every worker is joined;
    which failure surfaces does not depend on scheduling. (With
    [jobs <= 1] the first failure stops the run, as [List.map] does.) *)
