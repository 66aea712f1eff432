(** A Hubble-style black-hole monitoring system (Katz-Bassett et al.,
    NSDI 2008) — the study whose outage ledger anchors the paper's
    Table 2 load model ([P(d)] = poisonable outages per day lasting at
    least [d] minutes).

    A central site pings every monitored target on a fixed interval;
    after a run of failed rounds it triggers reachability checks from all
    distributed vantage points and classifies the incident: {e complete}
    (nobody reaches the target), {e partial} (some do — the class
    LIFEGUARD can repair), closing it when the central path works again.
    Incidents carry their duration, so the ledger directly yields
    [H(d)], the daily rate of poisonable incidents lasting at least
    [d]. *)

open Net

type classification =
  | Partial  (** Some vantage points still reach the target: poisonable. *)
  | Complete  (** Nobody does — nothing to reroute onto. *)

type incident = {
  target : Asn.t;
  started_at : float;
  detected_at : float;
  mutable ended_at : float option;
  mutable classification : classification;
  mutable reachable_vps : int;  (** At classification time. *)
  mutable total_vps : int;
}

val is_poisonable : incident -> bool
(** Partial incidents are candidates for poisoning-based repair. *)

type t

val create :
  env:Dataplane.Probe.env ->
  engine:Sim.Engine.t ->
  central:Asn.t ->
  vantage_points:Asn.t list ->
  targets:Asn.t list ->
  unit ->
  t
(** Start monitoring: the [central] site pings each target every 120 s
    (Hubble's rate); 3 consecutive failures
    trigger distributed classification from [vantage_points]. Runs until
    the engine stops being driven.

    Like a {!Monitor} pair, a target's central ping reuses the verdict
    of the last one while {!Dataplane.Probe.stamp} is unchanged, and
    still charges its probe. Classification pings are always sent
    fresh. *)

val incidents : t -> incident list
(** All incidents, oldest first (open ones included). *)

val h_of_d : t -> observed_days:float -> d_minutes:float -> float
(** Daily rate of {e closed, poisonable} incidents lasting at least
    [d_minutes] — Hubble's [H(d)]. *)

val probe_count : t -> int
