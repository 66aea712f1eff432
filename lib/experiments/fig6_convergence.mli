(** Figure 6 and §5.2: convergence behaviour after poisoned announcements.

    For each harvested AS the paper poisoned twice — once from a plain
    baseline [O] and once from the prepended baseline [O-O-O] — and
    measured, per route-collector peer, the time from its first update to
    its stable post-poison route. Peers are split by whether they had been
    routing through the poisoned AS ("change" vs "no change"). Anchors:
    with prepending, >95% of unaffected peers converge instantly and 97%
    make a single update; without prepending only ~70% converge instantly
    and 64% make one update. Global convergence medians: 91 s with
    prepending vs 133 s without. *)

type series = {
  label : string;  (** e.g. ["Prepend, no change"]. *)
  samples : float array;  (** Per-peer convergence times, seconds. *)
  instant : float;  (** Fraction converging with a single first=last update. *)
  single_update : float;  (** Fraction making exactly one update. *)
}

type result = {
  series : series list;  (** prepend/no-prepend x change/no-change. *)
  global_median_prepend : float;
  global_p90_prepend : float;
  global_median_noprepend : float;
  global_p90_noprepend : float;
  poisons : int;  (** Targets poisoned, each from both baselines. *)
  u_affected : float;
      (** Mean loc-RIB changes per poisoning for routers that had been
          routing via the poisoned AS; the paper's U = 2.03. *)
  u_unaffected : float;  (** Same for the rest; paper: 1.07. *)
}

val run : ases:int -> max_poisons:int -> jobs:int -> seed:int -> unit -> result
(** Harvest up to [max_poisons] on-path ASes in an [ases]-AS BGP-Mux
    world and poison each from both baselines, every poisoning in its
    own fork of a template with that baseline converged, on [jobs]
    workers. Deterministic in [seed]; the
    result does not depend on [jobs]. *)

val to_tables : result -> Stats.Table.t list
