(** Template worlds: build and converge a world once, then fork it per
    trial that changes routes.

    A template is an immutable snapshot of a quiescent world (its
    topology, engine, network, collector and failure set), taken with
    [Marshal] and its [Closures] flag. {!fork} rebuilds an independent
    deep copy from it, so every trial of a driver starts from the same
    state without paying for the build and the baseline convergence
    again. Because the template itself is an immutable string, one
    template can be forked on every [Par.Pool] domain at once and the
    forked worlds still share nothing (LG-DOM-MUT). Physical sharing
    inside the world survives the copy: routes the speakers pass on by
    pointer stay one value in the fork, and a marker a speaker holds
    (its vacant slot) is still the one its cells point to. A marker
    compared with [==] against a module-level value is not: the fork
    holds a copy of it, so such a marker must be told apart by a field
    instead ([Bgp.Route.is_route]).

    Templates embed code pointers: they are valid only inside the
    running binary, never written to disk. This is the one module
    allowed to use [Marshal] (lint rule LG-ROB-MARSHAL); journals and
    snapshots stay documented text formats.

    Take a template only of a world with no work in flight that the
    trial should not repeat: engine events pending at capture run again
    in every fork. Module-level [Obs] counters are not part of any
    world, so work done before the capture is counted once, not once
    per fork. *)

type 'a t = private string
(** The marshalled bytes, readable (for instance for their size) but
    made only by {!capture}. *)

val capture : 'a -> 'a t
(** Snapshot the value and everything it reaches. The value itself is
    not changed and may go on being used. *)

val fork : 'a t -> 'a
(** A fresh, independent copy of the captured value. It runs one major
    GC cycle first, so a run's peak memory does not grow with its number
    of forks. One cycle suits the templates the drivers fork, converged
    control-plane-only BGP-Mux worlds (about 0.2 MiB at 318 ASes). A
    trial that only reads routes does not fork at all: it runs on a
    {!Scenarios.view} of one world. *)
