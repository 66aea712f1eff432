(** The LIFEGUARD control loop, end to end.

    Wires the pieces together on the simulation clock: monitors detect an
    outage on a path to the origin's prefix, isolation locates the failing
    AS, the decision gate waits out young outages and checks that an
    alternate path exists, remediation poisons, and sentinel probes detect
    the repair and trigger unpoisoning. This is the per-prefix state
    machine a deployment runs (§4, §6's case study).

    The orchestrator is re-entrant: each affected target runs its own
    isolate/decide pipeline, so overlapping outages on disjoint prefixes
    are handled concurrently. Only one poison is announced at a time for
    the production prefix — concurrent outages blamed on the same AS
    attach to the standing announcement, different blames queue behind it
    — and announcements (poison and unpoison alike) are paced by
    [announce_spacing] to stay on the friendly side of route-flap
    damping. *)

open Net

type config = {
  decide : Decide.config;
  announce_spacing : float;
      (** Minimum seconds between BGP announcements (poison or unpoison).
          The paper suggests ~90 min between poisonings to stay clear of
          flap damping; the default is 0 (no pacing). *)
  decision_latency : float;
      (** Modeled cost (simulated seconds) of computing a remediation
          from scratch; charged before acting on every fresh verdict. A
          plan-cache hit skips it — that is the fast-reroute win the
          plan experiment measures. Default 0: fresh decisions act
          inline, in the same event as the isolation that led to them. *)
}

val default_config : config

(** {1 Fixed operating parameters}

    Not configurable: a pipeline gets 3 isolation attempts, backing off
    60 s after the first lost or denied one and doubling up to a 600 s
    ceiling, then gives up; a pipeline still undecided after 6 h gives
    up; a poison announced 3 times (initial + re-announces) without
    holding trips the circuit breaker and is rolled back; a poison no
    vantage feed shows in force within 3600 s of its first announcement
    never propagated and is rolled back. *)

val recheck_interval : float
(** Sentinel re-test period while a poison stands: 120 s. *)

val detection_lag : float
(** How long an outage has already lasted when a monitor declares it:
    {!Measurement.Monitor.fail_threshold} failed rounds of
    {!Measurement.Monitor.interval}, i.e. 120 s. The age gate counts
    from this estimated start. *)

(** Hooks let a harness (the fleet service) inject probe budgets and
    chaos without the orchestrator knowing about either. All default to
    absent = unrestricted. *)
type hooks = {
  probe_gate : (now:float -> cost:int -> bool) option;
      (** Budget admission for monitor probe pairs; refusal skips the
          round (see {!Measurement.Monitor.create}). *)
  monitor_loss : (unit -> bool) option;
      (** Chaos: sampled per monitor pair; [true] drops the pair. *)
  isolation_attempt : (target:Asn.t -> attempt:int -> [ `Proceed | `Lost | `Denied ]) option;
      (** Consulted before each isolation attempt: [`Lost] (chaos ate the
          probes) and [`Denied] (budget refused) both consume one attempt
          and back off exponentially. *)
  vantage_filter : (Asn.t -> bool) option;
      (** Chaos: which vantage points are currently alive; dead VPs are
          excluded from isolation. *)
  plan_consult :
    (target:Asn.t ->
    diagnosis:Isolation.diagnosis ->
    outage_age:float ->
    breaker_open:(Asn.t -> bool) ->
    Decide.verdict option)
    option;
      (** Consulted before every fresh decision: [Some verdict] serves a
          precomputed plan (and skips [decision_latency]); [None] falls
          through to the decision process. [breaker_open] lets the cache
          refuse to serve a plan against a breaker-open AS. *)
  plan_demote : (poison:Asn.t -> reason:string -> unit) option;
      (** Watchdog feedback for poisons that were served from a plan:
          called (after its [Plan_demotion] journal record) when such a
          poison is rolled back, so the cache demotes the poisoned AS
          back to compute-fresh. *)
}

val no_hooks : hooks

(** Lifecycle events, recorded with their simulation time. *)
type event =
  | Outage_detected of { vp : Asn.t; target : Asn.t }
  | Diagnosed of Isolation.diagnosis
  | Decision of Decide.verdict
  | Isolation_retry of { target : Asn.t; attempt : int; delay : float }
      (** An isolation attempt was lost or denied; retrying after [delay]. *)
  | Poison_queued of { target : Asn.t; poison : Asn.t }
      (** A poison verdict is waiting (for the prefix, or for spacing). *)
  | Poison_announced of Asn.t
  | Poison_confirmed of Asn.t
      (** Every vantage feed with a route shows the poisoned path: the
          announcement took effect. *)
  | Repair_confirmed of { target : Asn.t; poison : Asn.t }
      (** Per monitored target sharing the confirmed poison: traffic to
          [target] is flowing around [poison] again. The gap between this
          and the target's detection is the repair latency the plan cache
          exists to shrink. *)
  | Poison_reannounced of { target : Asn.t; announcement : int }
      (** A vantage feed showed a route avoiding the poisoned AS (the
          poison was flushed or lost, e.g. by a session reset); the
          announcement was idempotently re-sent. [announcement] counts
          all sends of this poison including the first. *)
  | Poison_rolled_back of { target : Asn.t; reason : string }
      (** The watchdog withdrew a failed poison: collateral damage,
          never propagated within the deadline, or flushed after its
          third announcement. *)
  | Breaker_open of Asn.t
      (** A poison verdict against an AS whose breaker is open was
          refused outright. *)
  | Recovery_detected of Asn.t  (** The poisoned AS works again. *)
  | Unpoisoned
  | Gave_up of string

val pp_event : Format.formatter -> event -> unit

type state = Idle | Isolating | Poisoned of Asn.t
(** Coarse position in the per-prefix machine: [Poisoned] while any
    poison is announced, else [Isolating] while any pipeline runs. *)

type t

val create :
  ?config:config ->
  ?hooks:hooks ->
  ?journal:Recover.Journal.t ->
  env:Dataplane.Probe.env ->
  atlas:Measurement.Atlas.t ->
  responsiveness:Measurement.Responsiveness.t ->
  plan:Remediate.plan ->
  vantage_points:Asn.t list ->
  unit ->
  t
(** Announce the plan's baseline and stand ready. The caller drives the
    engine; LIFEGUARD schedules its own follow-ups on it. Every
    externally-visible action (poison, re-announce, unpoison, breaker
    trip, plan demotion, terminal outcome) is appended to [journal]
    (default: a fresh in-memory {!Recover.Journal.create}) {e before} it
    takes effect. The journal is the one record of those actions:
    {!outcomes}, {!reannounce_count} and {!rollback_count} read it. *)

val watch : t -> targets:Asn.t list -> unit
(** Start monitors from the origin toward each target's infrastructure
    address, refreshing the atlas first so isolation has history. The
    monitors inherit the [probe_gate] and [monitor_loss] hooks. *)

val state : t -> state

val active_pipelines : t -> int
(** Pipelines currently isolating or awaiting decision. *)

val queued_poisons : t -> int
(** Poison verdicts waiting for the production prefix. *)

val awaiting_repair : t -> int
(** Targets attached to the standing poison, waiting on the sentinel. *)

val reannounce_count : t -> int
(** Watchdog re-announcements across the run (excluding initial sends):
    the journal's [Poison_reannounce] records. *)

val rollback_count : t -> int
(** Poisons the watchdog withdrew as failed: the journal's [Unpoison]
    records with [repaired = false]. *)

val breaker_trip_count : t -> int
(** Poison verdicts refused because the target's breaker was open. *)

val breaker_open : t -> target:Asn.t -> bool
(** Whether the circuit breaker has opened for [target]. *)

val events : t -> (float * event) list
(** Timestamped event log, oldest first. *)

val outcomes : t -> (float * Recover.Record.outcome) list
(** Terminal state per handled target, oldest first, with its time: the
    journal's [Outcome] records as written. [Repaired] when the sentinel
    confirmed the repair and the poison was withdrawn, [Stood_down] when
    the pipeline ended without (or before) a poison, [Gave_up] when the
    repair itself failed. *)

val monitors : t -> Measurement.Monitor.t list
(** Monitors started by {!watch}, oldest first. *)

val collector : t -> Bgp.Network.Collector.t
(** The watchdog's vantage-feed collector — exposed so reconciliation
    can compare journal state against collector ground truth. *)

val capture : t -> string
(** Canonical rendering of the controller's own state, the orchestrator
    share of the snapshot digest: pipelines (with phase and deadline),
    the active poison and its watchdog deadlines, the poison queue,
    pacing, outage-start estimates, breaker set, the breaker-trip count
    and the event and monitor log lengths. What the journal holds
    (outcomes, re-announces, rollbacks) is covered by the snapshot's
    journal length and by replay verification instead. Pure read —
    capturing never perturbs the run. *)
