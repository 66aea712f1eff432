(** The poisoning procedure the §5 drivers share: announce and converge
    the baseline, pick the ASes to poison, and run one poisoning round.
    Every function works on a trial world the caller built; none builds
    one. *)

open Net

val converge_baseline : Workloads.Scenarios.mux -> unit
(** Announce the mux plan's baseline (its sentinel, if any, and the
    prepended production path; {!Lifeguard.Remediate.announce_baseline})
    and run BGP until quiet. *)

val targets : Workloads.Scenarios.mux -> rng:Prng.t -> n:int -> Asn.t list
(** The first [n] of the ASes on collector paths
    ({!Workloads.Scenarios.harvest_on_path_ases}), shuffled with [rng].
    Call it on a converged world. *)

type round = {
  t0 : float;  (** Engine time just before the poison was announced. *)
  affected : Asn.t -> bool;
      (** Was this collector feed routing through the target at [t0]? *)
}

val round :
  Workloads.Scenarios.mux ->
  baseline:Bgp.As_path.t ->
  settle:float ->
  target:Asn.t ->
  sample:(float -> unit) ->
  round
(** One poisoning round on the production prefix: announce [baseline]
    and converge, let [settle] seconds pass so MRAI timers expire, note
    which feeds route through [target], clear the collector, call
    [sample t0] (where a caller schedules its data-plane sampling), then
    announce the poison of [target] and converge. The collector then
    holds exactly the round's updates from [t0] on. *)
