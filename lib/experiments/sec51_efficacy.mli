(** §5.1 Efficacy: do ASes find routes around a poisoned AS?

    The paper announced prefixes via BGP-Mux, harvested the transit ASes
    on collector-peer paths, poisoned each in turn, and watched whether
    peers that had been routing through the poisoned AS found alternates:
    77% did (two-thirds of the failures were peers captive behind their
    only provider). A large-scale simulation over an AS topology predicted
    alternate paths in 90% of 10M cases and agreed with the live
    poisonings 92.5% of the time. *)

type result = {
  poisons_attempted : int;
  cases : int;  (** (collector peer, poisoned AS) pairs with the peer routing via it. *)
  rerouted : int;  (** Peer found a path avoiding the poisoned AS. *)
  fraction_rerouted : float;  (** Paper: 0.77. *)
  captive : int;  (** Cut-off peers that were captive (poisoned their only provider path). *)
  fraction_sim : float;  (** Paper: 0.90. *)
  agreement : float;  (** Simulation prediction vs live poisoning outcome; paper: 0.925. *)
}

val run : ases:int -> max_poisons:int -> jobs:int -> seed:int -> unit -> result
(** Harvest up to [max_poisons] on-path ASes in an [ases]-AS BGP-Mux
    world and poison each in its own fork of the converged scout world,
    on [jobs] workers.
    Deterministic in [seed]; the result does not depend on [jobs]. *)

val to_tables : result -> Stats.Table.t list
