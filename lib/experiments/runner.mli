(** Shared trial execution for the experiment drivers.

    Every converted experiment decomposes into a fixed list of trial
    closures — a decomposition that is a pure function of the
    experiment's parameters, never of the worker count. No two trials
    share anything a trial writes; each kind of trial gets its world
    one way, chosen by what it writes:
    - {e rebuild}, when worlds differ by seed: the closure builds its
      own world;
    - {e fork}, when the trial changes routes: the closure forks an
      immutable template ({!Workloads.Template}) that the driver built
      and converged once (an immutable string, so sharing it across
      workers shares nothing mutable);
    - {e view}, when the trial only reads routes: {!run_views} hands the
      closure a {!Workloads.Scenarios.view} of one converged world.

    The pool returns results in submission order, so results (and
    therefore every table) are bit-identical for any [~jobs]. The
    share-nothing contract on module-level state is enforced statically
    by [lifeguard-lint] (rule [LG-DOM-MUT]); the read-only contract on a
    viewed world is checked by {!run_views} at run time. *)

val run_trials : jobs:int -> (unit -> 'a) list -> 'a list
(** Run the closures on a fresh pool of [jobs] workers ([jobs <= 1] runs
    inline on the caller); results in submission order; the earliest
    submitted failure is re-raised after the batch drains.

    Each trial increments the [runner.trials] counter and, when tracing
    is enabled, emits a [runner.trial] trace event with its submission
    index, wall-clock duration (from the injected {!Obs.Clock}) and the
    number of engine events it dispatched — the per-trial ground truth
    the per-experiment wall-clocks of [lifeguard paper] cannot provide. *)

val run_views :
  jobs:int -> Workloads.Scenarios.testbed -> (Workloads.Scenarios.testbed -> 'a) list -> 'a list
(** [run_views ~jobs world trials] runs each trial, as {!run_trials}
    does, on its own {!Workloads.Scenarios.view} of [world], made on the
    worker that runs it. After the trials it checks that no trial wrote
    the shared world: the network's {!Bgp.Network.fib_epoch} and
    {!Bgp.Network.message_count}, and the world engine's clock and
    number of pending events, must all be unchanged. If any moved (a
    trial announced a prefix, injected a [Control_and_data] failure or
    ran the world's engine through its view), it raises [Failure],
    whatever [jobs] is. *)
