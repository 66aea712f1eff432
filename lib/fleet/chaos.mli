(** Chaos injection for the fleet service: the failure modes a real
    LIFEGUARD deployment lives with, as deterministic knobs.

    Everything samples from an explicitly seeded {!Prng}, so a chaotic
    run is exactly reproducible — chaos perturbs the simulated world, not
    the simulation. *)

open Net

type config = {
  probe_loss : float;  (** Per-probe-pair loss probability, in [0,1]. *)
  vp_mtbf : float;  (** Mean uptime between VP crashes (s); 0 disables crashes. *)
  atlas_staleness : float;
      (** Probability a scheduled atlas refresh is skipped, in [0,1] —
          isolation then works from stale path history. *)
}

val none : config
(** All knobs off. *)

type t

val create : ?config:config -> rng:Prng.t -> engine:Sim.Engine.t -> unit -> t
(** Raises [Invalid_argument] on out-of-range knobs. *)

val start : t -> vantage_points:Asn.t list -> until:float -> unit
(** Arm the VP crash/recover renewal process (no-op when [vp_mtbf] is 0):
    exponential uptimes (mean [vp_mtbf]) and downtimes (mean 1800 s)
    per vantage point until the horizon. *)

val lose_probe : t -> bool
(** Sample the probe-loss coin (counted when it comes up lost). *)

val skip_refresh : t -> bool
(** Sample the atlas-staleness coin. *)

val vp_alive : t -> Asn.t -> bool
(** Is this vantage point currently up? *)

val crash_count : t -> int
val lost_probe_count : t -> int
val stale_refresh_count : t -> int
