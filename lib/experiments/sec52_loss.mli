(** §5.2: packet loss on working paths during poison-induced convergence.

    The paper pinged ~300 PlanetLab sites from the poisoned prefix every
    ten seconds across each poisoning; after 60% of poisonings the loss
    rate during convergence was under 1%, after 98% under 2%, and only 2%
    of poisonings had any 10-second round above 10% loss.

    Reproduction notes. Two loss sources are modeled. {e Structural} loss
    is what the simulator's data plane actually drops: forwarding through
    an AS whose FIB lags its loc-RIB (RIB-to-FIB install latency), no
    route, or a transient loop. With the prepended baseline this is close
    to zero — the paper's central claim — because old paths keep
    forwarding while announcements converge. {e Ambient} loss models the
    low-grade background loss of real PlanetLab paths (the paper filtered
    obvious unrelated problems but the sub-1% floor remains); it is drawn
    per (site, poisoning) from a log-normal calibrated to a ~0.3% median.
    The table reports the combined rates (comparable to the paper) and
    the structural component alone. *)

type result = {
  poisons : int;
  loss_rates : float array;  (** Combined rate per poisoning. *)
  fraction_under_1pct : float;  (** Paper: 0.60. *)
  fraction_under_2pct : float;  (** Paper: 0.98. *)
  fraction_with_bad_round : float;  (** Rounds > 10% loss; paper: 0.02 of poisonings. *)
  max_structural : float;  (** Highest simulator-attributable loss rate of any poisoning. *)
}

val run : ases:int -> max_poisons:int -> jobs:int -> seed:int -> unit -> result
(** Harvest up to [max_poisons] on-path ASes in an [ases]-AS BGP-Mux
    world and sample the data plane through each poisoning, every one in
    its own fork of a template with the prepended baseline converged, on
    [jobs] workers. Deterministic in [seed]; the
    result does not depend on [jobs]. *)

val to_tables : result -> Stats.Table.t list
