(** The poisoning procedure the §5 drivers share: build the BGP-Mux
    world they measure in, announce and converge the baseline, pick the
    ASes to poison, and run one poisoning round. A driver builds and
    converges a world once and forks it per trial
    ({!Workloads.Template}); {!round} starts from such a converged
    world. *)

open Net

val mux :
  ?mrai:float ->
  ?fib_install_delay:float ->
  ases:int ->
  seed:int ->
  unit ->
  Workloads.Scenarios.mux
(** The control-plane-only BGP-Mux world of the §5 drivers
    ({!Workloads.Scenarios.bgpmux} with [No_infrastructure]): they
    measure the production prefix only, so no infrastructure prefix is
    announced and nothing is converged yet. *)

val converge_baseline : Workloads.Scenarios.mux -> unit
(** Announce the mux plan's baseline (its sentinel, if any, and the
    prepended production path; {!Lifeguard.Remediate.announce_baseline})
    and run BGP until quiet. *)

val announce : Workloads.Scenarios.mux -> Bgp.As_path.t -> unit
(** Announce the production prefix with this path to every neighbor and
    run BGP until quiet. *)

val template :
  ?fib_install_delay:float ->
  ases:int ->
  seed:int ->
  baseline:(Asn.t -> Bgp.As_path.t) ->
  unit ->
  Workloads.Scenarios.mux Workloads.Template.t
(** A template of a fresh {!mux} with the production prefix announced
    with [baseline origin] and converged ({!announce}): the world every
    {!round} of a driver forks. *)

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
  settle:float ->
  target:Asn.t ->
  sample:(float -> unit) ->
  round
(** One poisoning round on the production prefix of a world whose
    baseline is announced and converged (a fork of a {!template}): let [settle]
    seconds pass so MRAI timers expire, note which feeds route through
    [target], clear the collector, call [sample t0] (where a caller
    schedules its data-plane sampling), then announce the poison of
    [target] and converge. The collector then holds exactly the round's
    updates from [t0] on. *)
