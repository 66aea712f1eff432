(** The continuous LIFEGUARD operations loop: one long-running service
    simulation over a BGP-Mux-style world.

    Where the batch experiments inject one failure and watch one pipeline,
    the service runs the paper's system as it would actually be deployed:
    Poisson outage arrivals over a live topology, per-target reachability
    monitoring under a global probe budget, concurrent isolation pipelines
    with bounded retries and exponential backoff, and a remediation queue
    that paces announcements to stay clear of route-flap damping —
    optionally under chaos (probe loss, vantage-point crashes, stale path
    atlases). Everything is seeded, so a day of fleet operations is a pure
    function of its configuration.

    The operating point is fixed, not configurable: a global probe
    budget of 8 ping pairs/s with a 400-pair bucket, 35 pairs per
    isolation attempt, an hourly path-atlas refresh,
    5400 s (the paper's ~90 min damping margin) between announcements,
    and the {!Lifeguard.Decide} / {!Lifeguard.Orchestrator} defaults for
    the 300 s age gate, the 120 s recheck period, the 30 s monitor
    period and the isolation retry policy (3 attempts, 60 s first
    backoff, doubling, capped at 600 s). *)

type config = {
  ases : int;  (** Synthetic Internet size (default 150). *)
  target_count : int;  (** Monitored edge networks (default 25). *)
  duration : float;  (** Observation window in seconds (default 86400). *)
  outages_per_day : float;  (** Poisson arrival rate (default 12/day). *)
  chaos : Chaos.config;  (** Chaos knobs (default {!Chaos.none}). *)
  faults : Bgp.Faults.config;
      (** Control-plane fault schedule (default {!Bgp.Faults.none}):
          session flaps, link failures, router crashes, update
          loss/duplication. Armed after baseline convergence; the origin
          is protected from crashes. *)
  planning : bool;
      (** Precompute remediation plans offline ([Plan.Planner] over this
          world's graph) and consult the plan cache before every fresh
          decision, dropping plans against breaker-open ASes and
          demoting them on watchdog divergence. Default false: every
          remediation is computed when it is needed. *)
  decision_latency : float;
      (** Modeled cost of computing a remediation from scratch (simulated
          seconds); plan-cache hits skip it. Default 0. *)
}

val default_config : config

(** Everything a day of operations produced. *)
type report = {
  days : float;
  injected : int;  (** Ground-truth failures injected. *)
  drawn : int;  (** Poisson arrivals drawn (incl. unplaceable). *)
  unplaceable : int;
  detected : int;  (** Monitor threshold crossings handed to pipelines. *)
  repaired : int;  (** Outages ending in sentinel-confirmed repair + unpoison. *)
  stood_down : int;  (** Resolved before or instead of poisoning. *)
  gave_up : int;
      (** Terminal failures of the repair itself: retry budget, pipeline
          timeout, watchdog rollback, or circuit breaker. *)
  unfinished : int;
      (** Still open at the horizon: running pipelines, queued poisons,
          and targets attached to a standing poison awaiting repair. *)
  poisons : int;
  unpoisons : int;
  time_to_repair : float list;
      (** Detection-to-repair latency per repaired outage, in order of
          repair (s). *)
  time_to_confirm : float list;
      (** Detection-to-[Repair_confirmed] latency per target whose
          traffic was rerouted around a confirmed poison, in event
          order (s). Unlike {!time_to_repair}, which runs until the
          underlying failure heals and the poison is withdrawn, this
          measures only the window the repair machinery controls — the
          fast-reroute latency the plan cache shortens. *)
  monitor_pairs : int;  (** Ping pairs the monitors sent. *)
  monitor_skipped : int;  (** Monitor rounds the budget refused. *)
  probes_sent : int;  (** All data-plane probes (incl. isolation). *)
  budget_granted : int;
  budget_denied : int;
  isolation_retries : int;
  vp_crashes : int;
  lost_probes : int;
  stale_refreshes : int;
  collector_updates : int;  (** Route-collector records during the window. *)
  injected_ge15 : int;  (** Injected outages lasting >= 15 min (raw count). *)
  injected_h15 : float;  (** Injected outages/day lasting >= 15 min. *)
  measured_updates_per_day : float;  (** (poisons + unpoisons) / days. *)
  predicted_updates_per_day : float;
      (** Table 2 model anchored at [injected_h15] (i = 1, t = the
          poisonable direction share, d = the age gate, two updates per
          remediated outage). *)
  reannounced : int;  (** Watchdog re-announcements after flushed/lost poisons. *)
  rolled_back : int;  (** Poisons withdrawn as failed. *)
  breaker_trips : int;  (** Poison verdicts refused by an open breaker. *)
  session_flaps : int;  (** Injected control-plane faults... *)
  link_failures : int;
  router_crashes : int;
  updates_dropped : int;
  updates_duplicated : int;  (** ...per class. *)
  plan_hits : int;  (** Decisions served from the plan cache. *)
  plan_misses : int;  (** Lookups that fell through to a fresh decision. *)
  plan_invalidations : int;
      (** Lookups that dropped plans against a breaker-open AS. *)
  plan_demotions : int;
      (** Plans demoted to compute-fresh after watchdog divergence. *)
}

val run : ?config:config -> seed:int -> unit -> report
(** Build the world, run the service for [config.duration] simulated
    seconds, and account for everything. Deterministic in [(config, seed)].
    This is {!run_durable}'s world with an in-memory journal, no snapshot
    marks and no sinks, so its report equals a [run_durable] report of
    the same [(config, seed)] byte for byte. *)

(** {1 Durable (crash-tolerant) runs}

    Every world's controller records its externally visible actions in a
    write-ahead operations journal: each is serialized and persisted
    {e before} its effect executes. {!run_durable} hands the caller that
    journal's lines, snapshot marks and crash injection. Recovery is
    deterministic re-execution — the resumed run replays from [t = 0]
    with the persisted journal as its expected prefix, verifying each
    re-derived action byte-for-byte ({!Recover.Journal.Divergence}
    otherwise) and, when a snapshot is supplied, verifying that
    re-execution reaching the snapshot's mark reproduces its exact bytes
    ({!Recover.Snapshot.Mismatch} otherwise). Because replay re-derives
    every action, an effect lost to an [After_write] crash is re-applied
    exactly once, and the resumed run's report is byte-identical to the
    uninterrupted run's at any [--jobs] width. *)

val config_fingerprint : config:config -> seed:int -> string
(** Stable 16-hex-digit fingerprint of [(config, seed)], stamped into
    snapshots so a resume under a different world is refused loudly. *)

val render_report : report -> string list
(** Deterministic [key value] line rendering of a report, one field per
    line; floats as lossless hex floats. Byte-stable: two reports are
    equal iff their renderings are. *)

type recovery = {
  rc_reconcile : Recover.Reconcile.t;
      (** Journal-vs-collector reconciliation: exactly-once poison
          accounting (no double poison, no orphaned poison). *)
  rc_journal : string list;  (** Full journal after the run, oldest first. *)
  rc_replayed : int;  (** Journal lines verified as the replay prefix. *)
  rc_marks : int;  (** Snapshot marks captured during this run. *)
}

type outcome =
  | Finished of { report : report; recovery : recovery }
  | Interrupted of {
      boundary : Recover.Crash.boundary;
      append : int;
      journal : string list;  (** Journal as persisted at the crash. *)
      snapshot : Recover.Snapshot.t option;  (** Last snapshot captured. *)
    }  (** An injected crash fired: everything a process death leaves on disk. *)

val run_durable :
  ?config:config ->
  seed:int ->
  ?journal:string list ->
  ?snapshot:Recover.Snapshot.t ->
  ?crash:Recover.Crash.spec ->
  ?snapshot_every:float ->
  ?journal_sink:(string -> unit) ->
  ?snapshot_sink:(Recover.Snapshot.t -> unit) ->
  unit ->
  outcome
(** The durable entry point. Fresh run: leave [journal] empty. Resume:
    pass the persisted [journal] lines (and the last [snapshot], if any
    — its [config_fp] must match, [Invalid_argument] otherwise). The
    resumed run re-executes from [t = 0], so its report is the
    whole-run report. [snapshot_every] > 0 arms periodic snapshot marks
    on the simulation clock. A supplied [snapshot] is verified only at
    its mark, so it needs marks armed at the cadence it was captured at:
    [Invalid_argument] when [snapshot_every] is absent or not positive.
    [journal_sink] sees each persisted line as it is appended (replayed
    lines included, in order); [snapshot_sink] sees each captured
    snapshot. [crash] injects a crash at the given journal append
    boundary — the run dies as {!Interrupted} exactly as a real process
    death at that point would. Deterministic in every argument. *)
