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

type case
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
    world, split over a fixed number of share-nothing shards, each in
    its own fork of the world, run on [jobs] workers. Deterministic in
    [seed]; the result does not depend on [jobs]. *)

val to_tables : result -> Stats.Table.t list
