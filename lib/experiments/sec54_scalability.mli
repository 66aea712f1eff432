(** §5.4 Scalability: atlas refresh cost and isolation overhead.

    Paper figures: the reverse-path atlas refreshes an average (peak) of
    225 (502) paths per minute within its probing budget, using an
    amortized ~10 IP-option probes and ~2 forward traceroutes per path
    (vs. 35 option probes for a from-scratch reverse traceroute); fault
    isolation costs ~280 probe packets per outage and completes in 140 s
    on average for reverse failures. *)

type result = {
  pairs_refreshed : int;
  probes_per_path : float;  (** Paper: ~10 option probes + ~2 traceroutes. *)
  paths_per_minute : float;  (** At the modeled probing budget; paper: 225 avg. *)
  isolation_probes_mean : float;  (** Paper: ~280. *)
  isolation_elapsed_mean : float;  (** Paper: 140 s. *)
  rtr_scratch_mean : float;
      (** Mean probes for a from-scratch reverse-traceroute measurement;
          paper: ~35 option probes. *)
  rtr_cached_mean : float;  (** With a cached path to confirm; paper: ~10. *)
}

val run : ases:int -> seed:int -> accuracy:Sec53_accuracy.result -> unit -> result
(** Refresh the atlas and measure reverse traceroutes in an [ases]-AS
    PlanetLab world; the isolation rows are read from [accuracy].
    Deterministic in [seed]. *)

val to_tables : result -> Stats.Table.t list
