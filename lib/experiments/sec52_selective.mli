(** §5.2 and §2.3: selective poisoning and provider path diversity.

    Reverse direction: announcing the poison through all muxes but one
    shifts the target AS onto its other ingress without disturbing
    anything else; the paper could steer 73% of the feed ASes off their
    first-hop AS link while leaving them with a route. Forward direction:
    with the same five university providers, silently failing the last AS
    link before a destination could be routed around via a different
    provider 90% of the time (§2.3). *)

type result = {
  feeds_tested : int;  (** Feeds with a route whose first-hop link was tried. *)
  fraction_reverse : float;  (** First-hop link avoidable; paper: 0.73. *)
  fraction_forward : float;
      (** Last link before the feed avoidable via another provider; paper: 0.90. *)
  undisturbed_ok : bool;
      (** Sanity from the I2/WiscNet demo: peers not using the poisoned
          AS keep their route under selective poisoning. *)
}

val run : ases:int -> max_feeds:int -> jobs:int -> seed:int -> unit -> result
(** Test up to [max_feeds] collector feeds of an [ases]-AS BGP-Mux
    world, each in its own trial world ({!feed_world}), on [jobs] workers. Deterministic
    in [seed]; the result does not depend on [jobs]. *)

val feed_world :
  Workloads.Scenarios.mux Workloads.Template.t -> feed:Net.Asn.t -> Workloads.Scenarios.mux
(** One feed's trial world: a fork of the scout's template (a
    {!Poisoning.mux} with its baseline converged) with the
    feed's infrastructure prefix announced and converged. Every loc-RIB
    then holds the route a fresh [Endpoints_only [feed]] world with the
    baseline converged holds; only the order of the two convergences,
    and so the route timestamps and the engine clock, differ. *)

val to_tables : result -> Stats.Table.t list
