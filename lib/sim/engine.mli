(** Discrete-event simulation engine.

    The BGP network, the monitoring loops and LIFEGUARD's orchestrator all
    run on a single shared clock: events are closures scheduled at absolute
    times and executed in time order (FIFO among equal times). Time is in
    seconds as a float. The queue drops its reference to an action once
    the action has run, so whatever the closure captured can be collected.

    The engine feeds three {!Obs.Metrics} instruments: the [sim.events]
    counter (one per dispatched event), the [sim.queue_depth] max-gauge
    (high-watermark of the pending heap) and the [sim.time_advance]
    histogram (virtual-time jump per dispatch). All are free when metrics
    are disabled. *)

type t

val create : ?now:float -> unit -> t
(** A fresh engine whose clock starts at [now] (default 0). *)

val now : t -> float
(** Current simulation time. *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** [schedule t ~at f] runs [f] when the clock reaches [at]. Scheduling in
    the past raises [Invalid_argument]. Events at equal times run in
    scheduling order. *)

val schedule_after : t -> delay:float -> (unit -> unit) -> unit
(** [schedule_after t ~delay f] = [schedule t ~at:(now t +. delay) f];
    [delay] must be non-negative. *)

val schedule_every :
  t -> every:float -> ?until:float -> (float -> [ `Continue | `Stop ]) -> unit
(** [schedule_every t ~every f] runs [f now] at the current time plus
    [every], then repeatedly every [every] seconds while it returns
    [`Continue] (and, if [until] is given, while the clock has not passed
    it: a tick that lands exactly on [until] still runs). *)

val run : ?until:float -> t -> unit
(** Execute events in order until the queue empties. With [until],
    execute only the events at or before [until] (later ones stay
    queued), then move the clock to [until], whether a later event is
    pending or the queue ran dry first; an [until] earlier than the clock
    leaves the clock where it is. *)

val run_before : t -> before:float -> unit
(** Barrier-windowed stepping: execute events with [time < before] only
    — strictly half-open, so an event at exactly [before] is left for
    the next window — then set the clock to [before] (even when the
    queue ran dry earlier, or was empty). This is the primitive the
    sharded-world runtime ({!Shard.Barrier}) drives each shard engine
    with: after [run_before ~before:b] the shard has observed every
    event before the frontier [b] and nothing at or after it. *)

val next_time : t -> float option
(** Timestamp of the earliest queued event, without executing it;
    [None] when the queue is empty. Used by the barrier scheduler to
    pick the next window start across shard engines. *)

val step : t -> bool
(** Execute the single next event; [false] if the queue is empty. *)

val pending : t -> int
(** Number of queued events. *)
