(** Figure 1: outage durations vs. their contribution to unavailability.

    The paper monitored 250 routers from EC2 for six weeks and found
    10,308 partial outages: more than 90% lasted at most 10 minutes, yet
    84% of the total unavailability came from the outages longer than
    that. We regenerate the figure from the calibrated outage model. *)

type result = {
  n : int;
  median_s : float;
  fraction_events_le_10min : float;
  unavailability_share_gt_10min : float;
  events_cdf : (float * float) list;  (** (minutes, fraction of events) *)
  unavailability_cdf : (float * float) list;
      (** (minutes, fraction of total unavailability) *)
}

val run : ?n:int -> seed:int -> unit -> result
(** Draw [n] outage durations (default the paper's 10,308) from the
    calibrated model and summarize both CDFs. Deterministic in [seed]. *)

val to_tables : result -> Stats.Table.t list
