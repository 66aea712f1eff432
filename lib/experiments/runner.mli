(** Shared trial execution for the experiment drivers.

    Every converted experiment decomposes into a fixed list of trial
    closures — a decomposition that is a pure function of the
    experiment's parameters, never of the worker count — where each
    closure owns its entire world (topology, network, engine, PRNG): it
    forks an immutable template ({!Workloads.Template}) that the driver
    built and converged once, or rebuilds the world from the seed. The
    template is an immutable string, so sharing it across workers shares
    nothing mutable. The pool returns results in submission order, so
    results (and therefore every table) are bit-identical for any
    [~jobs]. The share-nothing contract on the closures is enforced
    statically by [lifeguard-lint] (rule [LG-DOM-MUT]). *)

val run_trials : jobs:int -> (unit -> 'a) list -> 'a list
(** Run the closures on a fresh pool of [jobs] workers ([jobs <= 1] runs
    inline on the caller); results in submission order; the earliest
    submitted failure is re-raised after the batch drains.

    Each trial increments the [runner.trials] counter and, when tracing
    is enabled, emits a [runner.trial] trace event with its submission
    index, wall-clock duration (from the injected {!Obs.Clock}) and the
    number of engine events it dispatched — the per-trial ground truth
    the per-experiment wall-clocks of [lifeguard paper] cannot provide. *)
