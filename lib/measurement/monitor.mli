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
  ?gate:(now:float -> cost:int -> bool) ->
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

    [gate] is consulted once per target per round with [cost:1] (one ping
    pair); when it refuses, the round is skipped for that target — no
    probe, no failure-count change (see {!skipped_count}). [loss] is a
    chaos hook sampled once per sent pair; returning [true] makes the
    pair count as failed even if the network delivered it. *)

val probe_count : t -> int
(** Ping pairs sent so far. *)

val skipped_count : t -> int
(** Target rounds skipped because the budget [gate] refused them. *)
