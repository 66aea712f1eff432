(** Historical router responsiveness.

    Some routers never answer ICMP probes; treating their silence as
    unreachability would corrupt fault isolation. LIFEGUARD keeps a
    database of which addresses have historically responded so that, during
    a failure, "no reply" from a router configured never to reply is
    excluded from the suspect evidence (§4.1.2). *)

open Net

type t

val create : unit -> t

val configure_silent_fraction : t -> Prng.t -> Topology.As_graph.t -> fraction:float -> unit
(** Mark a random [fraction] of all router addresses silent — experiment
    setup matching the real-world mix of filtered routers. *)

val note : t -> Ipv4.t -> bool -> unit
(** Record a probe result for an address. An address's entry only moves
    forward: from absent to "never answered" (a failure) to "answered"
    (a success); a failure noted after a success changes nothing.
    {!Monitor} is the only caller, and relies on this to skip notes
    that cannot change the entry. *)

val expect_response : t -> Ipv4.t -> bool
(** Whether silence from this address is evidence of a problem: it is not
    configured silent, and it responded at some point in the past (or has
    never been probed, in which case we optimistically expect a reply). *)
