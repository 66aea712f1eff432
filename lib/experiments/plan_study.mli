(** Planned vs computed remediation on a recurring-outage workload.

    Runs the same fleet twice at identical seeds — plan cache on vs off —
    and reports the cache's hit rate plus the repair-latency distribution
    of each arm. Both arms charge {!Fleet.Service.config.decision_latency}
    simulated seconds per fresh decision round; plan hits skip it, so the
    latency table measures exactly what precomputation buys. *)

type result = {
  decision_latency : float;  (** Cost of one fresh decision round, seconds. *)
  planned : Fleet_study.result;  (** Plan cache consulted before every decision. *)
  computed : Fleet_study.result;  (** Every remediation computed from scratch. *)
}
(** Both arms merged by {!Fleet_study.merge} over the same world
    decomposition, so either arm's [shards], [targets] and [days] are
    the study's worlds, total targets and window. *)

val default_config : Fleet.Service.config
(** Few targets failing often (recurring outages), chaos and
    control-plane faults off, [decision_latency = 180s]. *)

val run :
  ?config:Fleet.Service.config -> ?targets:int -> ?jobs:int -> seed:int -> unit -> result
(** [run ~seed ()] decomposes [targets] (default 40) into worlds as
    {!Fleet_study.worlds} does (world seeds shared by both arms) and
    runs both arms as one trial list, planned worlds first
    ({!Runner.run_arms}), on up to [jobs] domains. The result is a pure
    function of [(config, targets, seed)]; [jobs] never changes a byte
    of output. *)

val to_tables : result -> Stats.Table.t list
(** Two tables: plan-cache effectiveness (hits/misses/hit rate,
    invalidations, demotions) and planned-vs-computed repair latency
    quantiles. *)
