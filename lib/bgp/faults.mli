(** Seeded control-plane fault injection.

    The measurement-plane chaos of the fleet layer perturbs probes and
    vantage points; this module makes the {e control plane} itself a
    fault domain, the way §5's case studies and the poisoning literature
    observe in the wild: sessions flap (RIB flush on both sides, full
    re-sync on re-establishment), links fail and are repaired
    mid-convergence, routers crash losing their loc-RIB and restart
    re-originating from configuration, and individual updates are lost or
    duplicated on the wire.

    Every fault is drawn from the caller's seeded {!Prng.t} on the
    simulation clock, so a fault schedule is deterministic and — because
    each trial world owns its injector, like [Fleet.Chaos] — invariant
    under [--jobs]. With {!none} (all rates zero) [start]
    schedules nothing and draws nothing: a fault-free run is
    byte-identical to a build without this module. *)

open Net

type config = {
  session_flap_mtbf : float;
      (** Mean seconds between BGP session flaps, per link; [0] disables
          flaps. A flap drops both directions of the session (adj-RIBs
          flushed) and re-establishes after a short downtime. *)
  session_flap_downtime : float;  (** Mean seconds a flapped session stays down. *)
  link_mtbf : float;
      (** Mean uptime seconds per link for long link failures; [0]
          disables them. Same mechanics as a flap, but the downtime is
          long enough for full re-convergence both ways. *)
  link_mttr : float;  (** Mean seconds to repair a failed link. *)
  router_mtbf : float;
      (** Mean uptime seconds per router; [0] disables crashes. A crash
          loses the loc-RIB ({!Network.crash_node}); the restart
          re-learns and re-originates. *)
  router_mttr : float;  (** Mean seconds a crashed router stays down. *)
  update_loss : float;  (** Per-message probability an update is silently lost. *)
  update_dup : float;  (** Per-message probability an update is delivered twice. *)
}

val none : config
(** All rates and probabilities zero: no faults, no draws. *)

val validate : config -> config
(** Raise [Invalid_argument] on out-of-domain knobs (negative MTBFs,
    probabilities outside [0,1], loss+dup > 1, non-positive repair times
    when the class is enabled). *)

val scale : config -> float -> config
(** [scale c k] multiplies every fault {e rate} by [k]: MTBFs divide by
    [k] and the wire probabilities multiply (clamped so the config stays
    valid); repair times are unchanged. [scale c 0.] is fault-free. The
    fault study's intensity axis. *)

type t

val create : ?config:config -> rng:Prng.t -> net:Network.t -> unit -> t
(** Validates the config and binds the injector to a network. Nothing is
    scheduled until {!start}. *)

val start : t -> ?protect:Asn.t list -> until:float -> unit -> unit
(** Arm one renewal process per link (flaps and failures) and per router
    (crashes) up to the horizon, and install the wire-fault hook when
    loss/duplication is on. ASes in [protect] are never crashed (the
    LIFEGUARD origin: the service dying is a different experiment), but
    their links still flap — a reset of the origin's provider session is
    precisely the case the remediation watchdog exists for. Disabled
    classes schedule nothing. *)

val session_flap_count : t -> int
val link_failure_count : t -> int
val router_crash_count : t -> int
val updates_dropped : t -> int
val updates_duplicated : t -> int
