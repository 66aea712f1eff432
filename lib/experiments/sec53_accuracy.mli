(** §5.3 Accuracy of failure isolation.

    The paper evaluated LIFEGUARD on failures between PlanetLab hosts,
    giving the system only its own vantage points and checking its
    conclusion against traceroutes from the far side: consistent in
    169/182 (93%) of isolated unidirectional failures. Separately, for
    320 candidate outages, the system's location differed from what an
    operator would conclude from traceroute alone 40% of the time.

    Here the simulator gives exact ground truth — the injected failure —
    so consistency is checked against it directly, which is strictly
    harder than the paper's proxy. *)

type case = {
  diagnosis : Lifeguard.Isolation.diagnosis;
  correct : bool;  (** Blamed the failed AS or its far side. *)
  direction_correct : bool;
  traceroute_differs : bool;  (** Traceroute alone would blame another AS. *)
}
(** One injected failure and LIFEGUARD's diagnosis of it. *)

type result = {
  cases : case list;  (** Every injected failure, isolated or not. *)
  isolated : int;  (** Cases whose diagnosis blamed an AS. *)
  consistent : int;  (** Isolated cases that blamed the failed AS or its far side. *)
  fraction_consistent : float;  (** Paper: 0.93. *)
  fraction_direction_correct : float;
  fraction_traceroute_differs : float;  (** Paper: 0.40. *)
  mean_probes : float;  (** Per isolated case. *)
  mean_elapsed : float;  (** Seconds per isolated case. *)
}

val run : ases:int -> failure_count:int -> jobs:int -> seed:int -> unit -> result
(** Hunt [failure_count] isolatable failures in an [ases]-AS PlanetLab
    world, split over a fixed number of shards, each on its own
    {!Workloads.Scenarios.view} of the one converged world, run on
    [jobs] workers. Deterministic in [seed]; the result does not depend
    on [jobs]. *)

val run_shard :
  seed:int -> shard:int -> quota:int -> Workloads.Scenarios.testbed -> case list
(** One shard of {!run}: hunt up to [quota] isolatable failures in the
    given testbed with shard [shard]'s PRNG, placing, isolating and
    healing one [Data_only] failure at a time. {!run} passes a view of
    its world; exported so that the view oracle in the tests can run
    the same shard on a fork of that world too. *)

val to_tables : result -> Stats.Table.t list
