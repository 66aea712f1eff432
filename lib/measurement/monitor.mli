(** Reachability monitoring and outage detection.

    The EC2 study's methodology (§2.1), as a reusable component: a vantage
    point sends a pair of pings to each target every {!interval} (30 s);
    {!fail_threshold} (4) consecutive failed pairs declare an outage, 90 s
    after the first failed pair, and up to 120 s after the onset, which
    may precede that pair by one interval
    ([Lifeguard.Orchestrator.detection_lag]). Recovery is declared on the
    first successful pair, and callbacks drive LIFEGUARD's isolation
    pipeline. *)

open Net

type outage = {
  vp : Asn.t;
  target : Ipv4.t;
  started_at : float;  (** Time of the first failed pair. *)
  detected_at : float;  (** When the failure threshold was crossed. *)
  mutable ended_at : float option;  (** Recovery time, once seen. *)
}

type t

val interval : float
(** Seconds between a target's ping pairs: 30. *)

val fail_threshold : int
(** Consecutive failed ping pairs that declare an outage: 4. *)

val create :
  env:Dataplane.Probe.env ->
  engine:Sim.Engine.t ->
  ?on_outage:(outage -> unit) ->
  ?responsiveness:Responsiveness.t ->
  ?src_ip:Ipv4.t ->
  ?gate:(now:float -> n:int -> int) ->
  ?loss:(unit -> bool) ->
  vp:Asn.t ->
  targets:Ipv4.t list ->
  unit ->
  t
(** Start monitoring; probing begins one {!interval} after creation and
    runs as long as the engine is driven. {!fail_threshold} consecutive
    failed pairs trigger [on_outage]. Probe results are noted in
    [responsiveness] when provided. [src_ip] overrides the address replies are sent to (a
    LIFEGUARD origin monitors from inside its production prefix).

    [gate ~now ~n] admits up to [n] ping pairs and returns how many it
    admitted. A round asks it once per target with [n:1], in target
    order (a quiet round, below, asks once for all of them); a target
    it refuses is skipped for the round — no probe, no
    failure-count change (see {!skipped_count}). [loss] is a chaos hook
    sampled once per delivered pair; returning [true] makes the pair
    count as failed even though the network delivered it.

    Each target keeps its last pair's verdict with the
    {!Dataplane.Probe.stamp} it was measured at. A pair sent while the
    stamp is unchanged reuses that verdict and charges its one ping,
    as a fresh pair would; the gate, the [loss] draw, the
    [responsiveness] note and the failure counting run as for any
    pair.

    Each target also keeps what it last noted in [responsiveness], and
    skips a note that cannot change the database: any note after an
    answer, a failure after a failure (see {!Responsiveness.note}).

    {b Quiet rounds.} A round that ends with no [loss] hook and every
    target {e settled} — measured and delivered at the current stamp,
    which leaves it no failure streak, no open outage, and an answer
    noted in [responsiveness] (when there is one) — remembers that
    stamp. While {!Dataplane.Probe.stamp_holds} it, the next round is
    quiet: each pair
    it would send reuses a delivered verdict and changes no state, and
    none calls [on_outage], so nothing else draws on [gate] within the
    round. A quiet round asks [gate] once with [n] = the target count,
    counts the [m] admitted pairs as sent and the rest as skipped, and
    {!Dataplane.Probe.charge}s [m] pings at once: the same counts,
    budget and state as [n] single-target steps. Any other round, and
    every round while {!Obs.Trace.on} (so each pair keeps its own
    [meas.probe] event), takes the per-target path above. *)

val probe_count : t -> int
(** Ping pairs sent so far. *)

val skipped_count : t -> int
(** Target rounds skipped because the budget [gate] refused them. *)
