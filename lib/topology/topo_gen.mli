(** Synthetic Internet topology generation.

    The paper's simulations run over measured AS graphs (UCLA topology,
    BGP feeds augmented with BitTorrent traceroutes). Those datasets are
    not available offline, so experiments here run over synthetic graphs
    with the same structural features that matter for poisoning: a full
    clique of tier-1 transit ASes, a transit hierarchy beneath it with
    power-law-ish degrees, lateral peering at every level, and multi-homed
    stub/edge networks. The generator is fully deterministic given its
    seed. *)

open Net

type params = {
  tier1 : int;  (** Size of the top clique (all peers of each other). *)
  tier2 : int;  (** Large transit providers. *)
  tier3 : int;  (** Regional transit providers. *)
  stubs : int;  (** Edge networks (no customers). *)
  tier2_peer_prob : float;  (** Probability a tier-2 pair peers. *)
  tier3_peer_prob : float;  (** Probability a tier-3 pair peers. *)
  multihoming : (float * int) list;
      (** Distribution of stub provider counts, e.g. [[ (0.30, 1); (0.45, 2);
          (0.25, 3) ]]. Weights must sum to ~1. *)
}

val min_ases : int
(** The smallest AS count {!sized} accepts. *)

val sized : int -> params
(** [sized n] scales the default parameters to roughly [n] ASes, preserving the
    tier proportions. Raises [Invalid_argument] when [n < min_ases]. *)

type t = {
  graph : As_graph.t;
  tier1 : Asn.t list;
  tier2 : Asn.t list;
  tier3 : Asn.t list;
  stub_list : Asn.t list;
}

val generate : ?params:params -> seed:int -> unit -> t
(** Generate a topology ([params] defaults to a ~320-AS Internet: 8
    tier-1s, 40 tier-2s, 70 tier-3s, 200 stubs). The graph is always
    connected: every AS has a chain of providers reaching the tier-1
    clique. *)

val transit_ases : t -> Asn.t list
(** All non-stub ASes (tiers 1–3). *)
