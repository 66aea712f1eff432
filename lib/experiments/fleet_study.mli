(** A day of continuous fleet operations at deployment scale: shard
    {!Fleet.Service} worlds across domains, pool repair latencies into a
    CDF and check the measured update stream against the paper's Table 2
    load model. The shard decomposition is a pure function of [targets]
    and [config.target_count] — never of [jobs] — so every rendered
    table is byte-identical for any worker count. *)

type result = {
  shards : int;  (** Share-nothing worlds the fleet decomposed into. *)
  targets : int;  (** Monitored networks fleet-wide. *)
  days : float;
  injected : int;
  drawn : int;
  unplaceable : int;
  detected : int;
  repaired : int;
  stood_down : int;
  gave_up : int;
  unfinished : int;
  poisons : int;
  unpoisons : int;
  time_to_repair : float list;  (** Pooled across worlds, ascending (s). *)
  time_to_confirm : float list;
      (** Detection-to-confirmed-reroute latencies, pooled across worlds,
          ascending (s): the window decision latency (and so planning)
          moves. *)
  monitor_pairs : int;
  monitor_skipped : int;
  probes_sent : int;
  budget_granted : int;
  budget_denied : int;
  isolation_retries : int;
  vp_crashes : int;
  lost_probes : int;
  stale_refreshes : int;
  collector_updates : int;
  injected_h15 : float;  (** Fleet-wide injected outages/day >= 15 min. *)
  measured_updates_per_day : float;
  predicted_updates_per_day : float;  (** Table 2 model, summed over worlds. *)
  reannounced : int;  (** Watchdog re-announcements of flushed poisons. *)
  rolled_back : int;  (** Poisons the watchdog withdrew as failed. *)
  breaker_trips : int;  (** Poison verdicts refused by an open breaker. *)
  session_flaps : int;  (** Injected control-plane faults, per class... *)
  link_failures : int;
  router_crashes : int;
  updates_dropped : int;
  updates_duplicated : int;  (** ...zero when [config.faults] is [none]. *)
  plan_hits : int;  (** Decisions served from the plan cache... *)
  plan_misses : int;
  plan_invalidations : int;
  plan_demotions : int;  (** ...all zero unless [config.planning]. *)
}

val worlds :
  config:Fleet.Service.config -> targets:int -> seed:int -> (unit -> Fleet.Service.report) list
(** The fleet's world decomposition, one trial per world:
    [ceil (targets / config.target_count)] {!Fleet.Service} runs of
    [config.target_count] targets each, the last taking the remainder;
    world [i] runs at seed [seed + i]. *)

val merge : targets:int -> days:float -> Fleet.Service.report list -> result
(** The one merge of world reports: counts and per-day rates sum (the
    worlds observe the same [days]-long window in parallel), latencies
    pool into ascending lists, and [shards] is the number of reports. *)

val run :
  ?config:Fleet.Service.config -> ?targets:int -> ?jobs:int -> seed:int -> unit -> result
(** Run the {!worlds} of [targets] (default 250) and {!merge} them.
    Deterministic in [(config, targets, seed)]. *)

val ttr_cdf : result -> Stats.Ecdf.t option
(** Pooled detection-to-repair CDF; [None] when nothing was repaired. *)

val to_tables : result -> Stats.Table.t list
