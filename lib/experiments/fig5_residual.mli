(** Figure 5: residual outage duration after X minutes have elapsed.

    The paper's point: once an outage has survived a few minutes, it will
    most likely survive several more — so spending ~5 minutes detecting
    and isolating before poisoning still leaves most of the unavailability
    on the table to be repaired. Key anchors: of outages lasting at least
    5 minutes, 51% lasted at least 5 more; of those lasting 10, 68%
    lasted at least 5 more. *)

type point = {
  elapsed_min : float;
  survivors : int;  (** Outages still alive [elapsed_min] in. *)
  mean_residual_min : float;
  median_residual_min : float;
  p25_residual_min : float;
}

type result = {
  points : point list;
  survival_5_plus_5 : float;  (** P(>= 10 min | >= 5 min); paper: 0.51. *)
  survival_10_plus_5 : float;  (** P(>= 15 min | >= 10 min); paper: 0.68. *)
  repairable_share : float;
      (** Unavailability in outages still alive 7 minutes in (5 min to
          locate + 2 min convergence) — the "up to 80%" LIFEGUARD could
          address. *)
}

val run : n:int -> seed:int -> unit -> result
(** Draw [n] outage durations from the calibrated model and read the
    residual-duration curve off them. Deterministic in [seed]. *)

val to_tables : result -> Stats.Table.t list
