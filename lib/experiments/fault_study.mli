(** The fault study: {!Fleet_study} under {!Bgp.Faults} at increasing
    intensity. Reports injected fault volume, repair outcomes, and
    watchdog/circuit-breaker activity (re-announces, rollbacks, breaker
    trips, time-to-repair quantiles) as a function of fault intensity.
    Intensity 0 is the fault-free control row. *)

type row = { intensity : float; result : Fleet_study.result }

type result = {
  profile : Bgp.Faults.config;  (** The intensity-1 fault profile. *)
  rows : row list;  (** One merged fleet per intensity, ascending. *)
}

val default_profile : Bgp.Faults.config
(** Every fault class enabled, calibrated so a one-day window sees
    regular session flaps and occasional link/router faults. *)

val default_intensities : float list
(** [[0.0; 0.5; 1.0; 2.0]]. *)

val run :
  ?config:Fleet.Service.config ->
  ?profile:Bgp.Faults.config ->
  ?intensities:float list ->
  ?targets:int ->
  ?jobs:int ->
  seed:int ->
  unit ->
  result
(** The {!Fleet_study.worlds} of every intensity, each with the
    profile scaled by {!Bgp.Faults.scale}, run as one trial list
    (highest intensity first) and merged per intensity by
    {!Fleet_study.merge}: each row's [result] is that intensity's
    {!Fleet_study.run}. Same seed across rows, so the outage workload
    is held fixed and only the fault schedule varies.
    Deterministic in [(config, profile, intensities, targets, seed)] and
    invariant under [jobs]. Raises [Invalid_argument] on an invalid
    profile, an empty intensity list, a negative intensity or
    non-positive [targets], before any world runs. *)

val to_tables : result -> Stats.Table.t list
