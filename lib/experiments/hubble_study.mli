(** A week of Hubble-style monitoring: deriving H(d) from first principles.

    Table 2's load model rests on H(d), the daily rate of poisonable
    outages lasting at least d minutes, which the paper takes from the
    Hubble study [20] (anchored at d = 15) and extrapolates to d = 5 with
    the EC2 duration distribution. Here the whole pipeline runs live: a
    synthetic Internet, a Poisson process injecting silent failures with
    calibrated durations, a {!Measurement.Hubble} monitor detecting and
    classifying them, and H(d) read off the resulting incident ledger.
    The interesting check is relative: the decay of H(d) with d should
    match the ratios implied by Table 2 (H(5):H(15):H(60) ~ 2.85:1:0.42),
    since the absolute rate just scales with the injection rate. *)

type result = {
  days : float;
  injected : int;
  detected : int;
  partial : int;  (** Poisonable (some vantage points unaffected). *)
  h5 : float;
  h15 : float;
  h60 : float;
  ratio_5_over_15 : float;  (** Paper-implied: ~2.85. *)
  ratio_60_over_15 : float;  (** Paper-implied: ~0.42. *)
  probes : int;
}

val run : ases:int -> days:float -> jobs:int -> seed:int -> unit -> result
(** Monitor an [ases]-AS PlanetLab world for [days] simulated days at 18
    injected failures a day, split into independent one-day shards run
    on [jobs] workers, each on its own {!Workloads.Scenarios.view} of the
    one converged world. Deterministic in [seed]; the result does not
    depend on [jobs]. *)

val to_tables : result -> Stats.Table.t list
