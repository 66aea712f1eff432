(** Poisson outage arrival process over a live testbed.

    The continuous counterpart of the one-shot failure injections used by
    the batch experiments: arrivals follow an exponential interarrival
    clock, each failure is placed on the current data-plane path between
    the origin and a uniformly drawn target with {!Scenarios.Placement},
    lasts a {!Outage_gen}-calibrated duration, and is removed on expiry.
    Every successful injection is recorded in a ledger — the ground truth
    a fleet run's detection and repair accounting is scored against. *)

open Net

(** One injected failure, as ground truth. *)
type injected = {
  at : float;  (** Injection time (s, simulation clock). *)
  duration : float;  (** Scheduled lifetime (s). *)
  target : Asn.t;  (** The monitored AS whose path it sits on. *)
  location : Asn.t;  (** The failed AS (or near end of the failed link). *)
  direction : Outage_gen.direction;
  spec : Dataplane.Failure.spec;
}

type t

val create : unit -> t

val start :
  ?toward_src:Prefix.t ->
  t ->
  rng:Prng.t ->
  bed:Scenarios.testbed ->
  src:Asn.t ->
  targets:Asn.t list ->
  mean_interarrival:float ->
  until:float ->
  unit ->
  unit
(** Schedule arrivals on [bed]'s engine from now until [until] (absolute
    simulation time); the caller then drives the engine. [src] is the
    observation point paths are computed from (the LIFEGUARD origin);
    [toward_src] scopes reverse failures (pass the sentinel prefix so the
    origin's monitors see them). Arrivals whose path has no breakable
    transit hop are counted but not injected. *)

val injected : t -> injected list
(** Ledger of injected failures, oldest first. *)

val injected_count : t -> int

val drawn_count : t -> int
(** Arrivals drawn from the Poisson clock, placeable or not. *)

val unplaceable_count : t -> int
(** Arrivals skipped because no transit hop was available to break. *)
