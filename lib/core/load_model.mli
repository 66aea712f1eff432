(** Update-load estimation at deployment scale — §5.4 and Table 2.

    The number of additional daily path changes a router sees under a
    LIFEGUARD deployment is [I x T x P(d) x U]: the fraction of ISPs
    deploying, the fraction of networks each monitors, the daily count of
    poisonable outages lasting at least [d] minutes, and the per-poison
    update cost per router ([U ~= 1]: ~2.03 updates for routers that had
    used the poisoned AS minus the one BGP would have sent anyway, ~1.07
    for the rest).

    [P(d)] derives from the Hubble outage study: [P(d) = H(d)/(Ih x Th)]
    with [Ih = 0.92] (fraction of edge ISPs Hubble monitored) and
    [Th = 0.01] (fraction of transit ASes that are poisoning candidates).
    Hubble's smallest observation window is 15 minutes, so [H(d)] for
    shorter [d] is extrapolated with the EC2 duration distribution's
    survival ratios, exactly as the paper does. *)

type params = {
  h15_per_day : float;
      (** Hubble poisonable outages per day lasting >= 15 min (the paper's
          anchor measurement). *)
  ih : float;  (** Hubble's edge-ISP coverage, 0.92. *)
  th : float;  (** Fraction of ASes that are poisonable transits, 0.01. *)
  updates_per_poison : float;  (** U; the paper rounds to 1. *)
}

val default_params : params
(** Calibrated so the Table 2 reference cell (I=0.01, T=1.0, d=15) lands
    at ~275 daily changes. *)

val daily_path_changes :
  params -> durations:float array -> i:float -> t:float -> d_minutes:float -> float
(** The Table 2 cell: extra daily path changes per router for deployment
    fraction [i], monitoring fraction [t] and poisoning delay
    [d_minutes]. *)

type grid_row = { d_minutes : float; t : float; i : float; changes : float }

val table2 : params -> durations:float array -> grid_row list
(** The full Table 2 grid: d in {5, 15, 60}, T in {0.5, 1.0},
    I in {0.01, 0.1, 0.5}. *)
