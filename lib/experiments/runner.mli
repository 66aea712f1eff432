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

    {!Par.Pool} returns results in submission order, so results (and
    therefore every table) are bit-identical for any [~jobs]. The
    share-nothing contract on module-level state is enforced statically
    by [lifeguard-lint] (rule [LG-DOM-MUT]); the read-only contract on a
    viewed world is checked by {!run_views} at run time. *)

val run_trials : jobs:int -> (unit -> 'a) list -> 'a list
(** Run the closures with {!Par.Pool.run_trials}, on at most [jobs]
    domains, the caller included; every worker domain is spawned by the
    call and joined before it returns, and [jobs <= 1] runs the closures
    in order on the caller. Results come in submission order; the
    earliest submitted failure is re-raised.

    Each trial increments the [runner.trials] counter and, when tracing
    is enabled, emits a [runner.trial] trace event with its submission
    index, wall-clock duration (from the injected {!Obs.Clock}) and the
    number of engine events it dispatched — the per-trial ground truth
    the per-experiment wall-clocks of [lifeguard paper] cannot provide. *)

val run_arms : jobs:int -> (unit -> 'a) list list -> 'a list list
(** [run_arms ~jobs arms] runs the arms of one study, each a list of
    trials over the same inputs, as one {!run_trials} list (arm order,
    then trial order within an arm), so no arm waits for another to
    drain before its trials start. It returns each arm's results, in
    the order and with the lengths of [arms]. *)

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
