(** Deterministic time-barrier scheduler for partitioned worlds.

    A sharded world splits its state over [shards] independent
    {!Sim.Engine} event queues, synchronised at {e time barriers}:
    windows of simulated time no wider than the [lookahead] (the minimum
    cross-shard message latency). Within a window the shards are
    causally independent — any message emitted inside the window arrives
    at or after the window's end — so the windows replay identically at
    any shard count. Shards advance one after another on the calling
    domain.

    The barrier owns the cross-window message flow:

    + {b sweep} — drain every shard's outbox of messages emitted since
      the previous barrier;
    + {b order} — merge them into the backlog in the canonical order
      [(arrival time, src, dst, payload)] supplied by the embedder's
      [order] hook, with a stable sort so equal keys keep their
      per-source emission order;
    + {b inject} — hand each message whose arrival falls inside the next
      window back to the embedder (which schedules it on the destination
      shard's engine, re-interning any shared values on shard entry);
    + {b advance} — run every shard engine up to the window end
      ({!Sim.Engine.run_before}), in shard-index order.

    Windows are {e adaptive}: the next window starts at the earliest
    pending work (shard event or backlog arrival) rather than on a fixed
    grid, so an idle expanse of simulated time costs one barrier, not
    [expanse / lookahead] of them. The barrier drives itself as an event
    on the [control] engine (the {e pump}), so existing
    [Sim.Engine.run]-based call sites need no new driver loop; it never
    advances the shards past the control engine's next pending event, so
    control-plane code always observes shard state no further along than
    its own clock.

    Observability: each barrier records into [shard.barriers] (counter),
    [shard.cut_msgs] / [shard.local_msgs] (messages swept whose source
    and destination shard differ / coincide) and [shard.barrier_wait]
    (histogram of the simulated-time width of each window). All are
    deterministic, simulation-derived quantities, so enabling metrics
    never changes a result. *)

type 'msg hooks = {
  next_work : int -> float option;
      (** Earliest pending local event of a shard; [None] when idle. *)
  advance : int -> before:float -> unit;
      (** Run one shard's events strictly before the barrier time and
          leave its clock there ({!Sim.Engine.run_before}). Must touch
          only that shard's state. *)
  drain : int -> 'msg list;
      (** Take (and clear) a shard's outbox, in emission order. Called
          between windows, while shards are quiescent. *)
  inject : 'msg -> unit;
      (** Schedule one due message on its destination shard's engine.
          Called between windows, in canonical order. *)
  arrival : 'msg -> float;  (** Simulated delivery time. *)
  src_shard : 'msg -> int;
  dst_shard : 'msg -> int;
  order : 'msg -> 'msg -> int;
      (** Canonical tiebreak among messages with equal arrival times,
          e.g. [(src_asn, dst_asn, prefix)]. Sorting is stable, so
          returning 0 preserves per-source emission order. *)
}

type 'msg t

val create :
  control:Sim.Engine.t -> lookahead:float -> shards:int -> ?record_history:bool ->
  'msg hooks -> 'msg t
(** A barrier over [shards] shard engines, pumped from [control].
    [lookahead] must be positive and no larger than the minimum
    cross-shard message latency; the caller is responsible for that
    bound. With [record_history] (tests only) every barrier appends a
    [(window start, injected, cut)] row to {!history}. The pump starts
    dormant: call {!poke} once work exists. *)

val poke : 'msg t -> unit
(** Arm the pump (an event on the control engine at the current control
    time) unless it is already armed. Call after any control-plane
    action that created shard work — an emitted message, a scheduled
    shard event — so a dormant barrier wakes up. Idempotent. *)

val sync_all : 'msg t -> now:float -> unit
(** Run the barrier loop inline (windows, exchanges, injections) until
    the frontier reaches [now], leaving every shard's clock there. The
    window sequence is exactly what the pump would have produced, so
    calling this eagerly — before a control-plane read or write at
    control time [now] — changes freshness, never results. No-op when
    the frontier is already at or past [now]. *)


val backlog : 'msg t -> int
(** Messages swept but not yet injected (in flight across windows). *)

val barriers : 'msg t -> int
(** Barriers executed so far (windows with work; frontier-only hops at
    idle times are not counted). *)

val cut_messages : 'msg t -> int
(** Messages swept whose source and destination shards differ. *)

val history : 'msg t -> (float * int * int) list
(** With [record_history]: per-barrier [(window start, messages
    injected, cut messages injected)] rows, oldest first. Empty
    otherwise. *)
