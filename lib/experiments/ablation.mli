(** Ablations of the design choices the paper motivates.

    Three knobs, each varied in isolation on the same poisoning workload:

    - {b Baseline prepending} (the §3.1.1 insight): poisoning from a plain
      [O] baseline vs the [O-O-O] baseline. Measured by the share of
      unaffected collector peers that reconverge instantly and the mean
      updates per peer.
    - {b MRAI}: the min-route-advertisement interval drives convergence
      time; halving it speeds convergence at the cost of more updates.
    - {b RIB-to-FIB install latency}: with slower FIB installs the data
      plane lags the control plane longer, lengthening the window where
      convergence can drop packets (§5.2's loss).

    Each row reports medians over the same set of poisonings. *)

type row = {
  label : string;  (** The configuration, e.g. ["MRAI 15 s"]. *)
  instant_unaffected : float;  (** Fraction of unaffected peers converging instantly. *)
  mean_updates : float;
  global_median : float;  (** Median global convergence time (s). *)
  structural_loss : float;  (** Mean structural loss rate across poisonings. *)
}

type result = { rows : row list }

val run : ases:int -> poisons:int -> jobs:int -> seed:int -> unit -> result
(** Poison up to [poisons] harvested ASes under each configuration, one
    [ases]-AS world per configuration, on [jobs] workers. Deterministic
    in [seed]; the result does not depend on [jobs]. *)

val to_tables : result -> Stats.Table.t list
