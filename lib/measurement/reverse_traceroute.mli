(** Reverse traceroute (Katz-Bassett et al., NSDI 2010) — the measurement
    system LIFEGUARD leans on for reverse-path visibility.

    Traceroute shows the forward path only; the reverse path must be
    assembled hop by hop from the destination back to the source using
    three techniques, in decreasing order of preference:

    - {b spoofed record-route}: a vantage point within RR range of the
      current hop pings it spoofing the source's address; the reply
      travels the {e reverse} path and records the next hops into the
      packet's remaining record-route slots;
    - {b IP timestamp queries}: ask the current hop to timestamp a guessed
      adjacency, confirming whether it is the next reverse hop;
    - {b assumed symmetry}: when no option-capable router or vantage point
      helps, fall back to mirroring the forward path for one hop (and
      flag the hop as assumed, since reverse paths are frequently
      asymmetric).

    Routers support IP options unevenly; support here is modeled as a
    deterministic per-router property at fixed rates: 75% of routers
    answer record-route (within an 8-hop slot budget) and 55% answer
    timestamp queries. The module also implements the paper's (§5.4)
    incremental refresh: re-confirming a previously known path costs far
    fewer probes than measuring from scratch (the paper reports an
    amortized ~10 option probes vs 35). *)

open Net

type how =
  | Spoofed_record_route  (** Revealed by a spoofed RR ping. *)
  | Timestamp  (** Confirmed by an IP-timestamp query. *)
  | Assumed_symmetric  (** Mirrored from the forward path: unverified. *)
  | Confirmed_cached  (** Re-confirmed from a previous measurement. *)

type hop = { asn : Asn.t; how : how }

type measurement = {
  path : hop list;  (** Destination first, source last. *)
  complete : bool;  (** Reached the source. *)
  probes_used : int;  (** Option probes + supporting pings consumed. *)
  assumed_hops : int;  (** Hops taken on faith via symmetry. *)
}

type t
(** A measurer: probe environment, vantage points and support model. *)

val create : env:Dataplane.Probe.env -> vantage_points:Asn.t list -> unit -> t

val measure :
  t -> from_:Asn.t -> to_ip:Ipv4.t -> ?cached:Asn.t list -> unit -> measurement option
(** Measure the path from [from_] back to [to_ip]'s network.

    Returns [None] when the mechanism cannot start: no vantage point can
    deliver the spoofed stimuli to [from_]. With [cached] (a previously
    measured reverse path, destination first) the measurer first tries to
    re-confirm it hop by hop at one probe per hop, falling back to the
    full mechanism from the first divergence — the paper's amortization.

    Hops measured via [Assumed_symmetric] may be wrong when routing is
    asymmetric; [assumed_hops] counts them so callers can judge
    confidence. *)
