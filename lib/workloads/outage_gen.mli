(** Synthetic outage datasets calibrated to the paper's EC2 study (§2.1).

    The duration model is a two-component mixture fit to the published
    anchors: the median outage is barely longer than the 90 s detection
    floor; more than 90% of outages last under ten minutes; yet the long
    tail carries ~84% of the total unavailability (Fig. 1); and of the
    outages that survive five minutes, about half survive five more
    (Fig. 5). Durations are [90 + Exp(40)] with probability 0.88 and
    [90 + Pareto(shape 0.70, scale 150 s)] otherwise, capped at three
    days. *)

type params = {
  short_weight : float;
  short_mean : float;  (** Mean of the short component's exponential tail (s). *)
  long_shape : float;  (** Pareto tail index of the long component. *)
  long_scale : float;  (** Pareto minimum (s). *)
  floor : float;  (** Detection floor: minimum observable duration (s). *)
  cap : float;  (** Truncation for the heavy tail (s). *)
}

val duration : ?params:params -> Prng.t -> float
(** One outage duration in seconds. *)

val durations : ?params:params -> seed:int -> n:int -> unit -> float array
(** A dataset of [n] outages (the paper's study observed 10,308). *)

(** Structural properties of each synthetic outage, for isolation and
    repair experiments. *)
type direction = Forward | Reverse | Bidirectional

type shape = {
  direction : direction;
  on_link : bool;  (** 38% of failures occur on inter-AS links [13]. *)
  duration : float;
}

val shape : ?params:params -> Prng.t -> shape
(** Direction mix follows the paper's observation that many failures are
    unidirectional [20]: 40% reverse, 40% forward, 20% bidirectional. *)

val total_unavailability : float array -> float
(** Sum of durations. *)

val unavailability_share_above : float array -> threshold:float -> float
(** Fraction of total unavailability contributed by outages longer than
    [threshold] seconds — the quantity behind Fig. 1's dotted line. *)
