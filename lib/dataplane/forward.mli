(** Hop-by-hop data-plane forwarding.

    A packet walk starts at a source AS and repeatedly applies the current
    AS's FIB (longest-prefix match over its loc-RIB) to pick the next AS,
    until the destination's originating AS delivers it, no route exists, a
    forwarding loop is detected, or an injected failure drops it. This is
    the substrate for every probe primitive: what the paper measures with
    pings and traceroutes, this module computes from simulator state. *)

open Net

type hop = { asn : Asn.t; address : Ipv4.t }
(** One AS-level hop; [address] is the responding border router. *)

type outcome =
  | Delivered  (** Reached the AS originating the destination's prefix. *)
  | No_route of Asn.t  (** An AS had no FIB entry for the destination. *)
  | Loop  (** The walk revisited an AS: a forwarding loop. *)
  | Dropped of { at : Asn.t; by : Failure.spec }
      (** An injected failure consumed the packet at [at]. *)

type walk = { hops : hop list; outcome : outcome }
(** [hops] lists the traversed ASes in order, starting with the source. *)

val walk : Bgp.Network.t -> Failure.set -> src:Asn.t -> dst:Ipv4.t -> walk
(** Forward a packet from [src] toward [dst]. A 64-hop bound ends the
    walk; exceeding it reports [Loop]. There are no default routes: an AS
    with no FIB entry covering [dst] ends the walk with [No_route]. *)

val delivers : Bgp.Network.t -> Failure.set -> src:Asn.t -> dst:Ipv4.t -> bool
(** Whether [walk]'s outcome is [Delivered], computed without the walk:
    the same per-hop forwarding rule, but no hop list, no
    responding-router choice and no visited set (a loop runs into the
    hop bound instead), and an allocation-free FIB lookup
    ({!Bgp.Network.fib_find}). A ping needs only this verdict. *)

val as_path_of_walk : walk -> Asn.t list
(** The AS-level path traversed (source first, duplicates collapsed). *)

val infrastructure_prefix : Asn.t -> Prefix.t
(** The /24 covering an AS's router addresses (10.x.y.0/24 derived from
    the ASN). Announcing it makes the AS's routers pingable — every
    experiment topology announces one per AS. *)

val announce_infrastructure : Bgp.Network.t -> unit
(** Originate every AS's infrastructure prefix (plain, unpoisoned). Run
    the network to convergence afterwards. *)

val announce_infrastructure_for : Bgp.Network.t -> Asn.t list -> unit
(** Originate infrastructure prefixes for the given ASes only. Converging
    the full per-AS announcement dominates testbed construction cost, and
    probes only ever target (and hop replies only ever return to) the
    {e endpoints'} infrastructure prefixes — so experiments that rebuild a
    world per trial announce just the ASes they will probe between. *)

val probe_address : Bgp.Network.t -> Asn.t -> Ipv4.t
(** The address probes from this AS use as their source (its first router
    address, which lies inside its infrastructure prefix). *)
