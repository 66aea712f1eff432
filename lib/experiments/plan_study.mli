(** Planned vs computed remediation on a recurring-outage workload.

    Runs the same fleet twice at identical seeds — plan cache on vs off —
    and reports the cache's hit rate plus the repair-latency distribution
    of each arm. Both arms charge {!Fleet.Service.config.decision_latency}
    simulated seconds per fresh decision round; plan hits skip it, so the
    latency table measures exactly what precomputation buys. *)

(** One arm's merged counters and pooled repair times. *)
type mode = {
  detected : int;
  repaired : int;
  stood_down : int;
  gave_up : int;
  poisons : int;
  time_to_repair : float list;  (** Pooled across worlds, ascending. *)
  time_to_confirm : float list;
      (** Detection-to-confirmed-reroute latencies, pooled, ascending —
          the window decision latency (and thus planning) moves. *)
  plan_hits : int;
  plan_misses : int;
  plan_invalidations : int;
  plan_demotions : int;
}

type result = {
  worlds : int;  (** Independent worlds per arm. *)
  targets : int;  (** Total targets across worlds. *)
  days : float;  (** Observation window per world, in days. *)
  decision_latency : float;  (** Cost of one fresh decision round, seconds. *)
  planned : mode;  (** Plan cache consulted before every decision. *)
  computed : mode;  (** Every remediation computed from scratch. *)
}

val default_config : Fleet.Service.config
(** Few targets failing often (recurring outages), chaos and
    control-plane faults off, [decision_latency = 180s]. *)

val run :
  ?config:Fleet.Service.config -> ?targets:int -> ?jobs:int -> seed:int -> unit -> result
(** [run ~seed ()] decomposes [targets] (default 40) into worlds as
    {!Fleet_study.worlds} does (world seeds shared by both arms) and runs both arms — in parallel when [jobs > 1]. The
    result is a pure function of [(config, targets, seed)]; [jobs] never
    changes a byte of output. *)

val hit_rate : mode -> float
(** Hits over lookups, in [0, 1]; [0.] when there were no lookups. *)

val to_tables : result -> Stats.Table.t list
(** Two tables: plan-cache effectiveness (hits/misses/hit rate,
    invalidations, demotions) and planned-vs-computed repair latency
    quantiles. *)
