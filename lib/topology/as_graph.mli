(** The AS-level Internet topology.

    An annotated undirected graph: nodes are ASes (with a tier and a small
    set of border routers carrying stable IPv4 addresses), edges carry a
    business {!Relationship.t}. All BGP and data-plane behaviour in this
    reproduction is derived from one of these graphs, whether generated
    synthetically ({!Topo_gen}) or built by hand for scenario tests. *)

open Net

type router = { asn : Asn.t; index : int; address : Ipv4.t }
(** A border router of an AS. Router addresses make traceroute output
    concrete and give the responsiveness database stable keys. *)

type t

val create : unit -> t

val add_as : t -> ?tier:int -> ?routers:int -> Asn.t -> unit
(** Add an AS with [routers] border routers (default 1) at hierarchy level
    [tier] (1 = top transit clique; default 3). Adding an existing ASN
    raises [Invalid_argument]. Router addresses are derived from the ASN so
    graphs are reproducible. *)

val add_link : t -> a:Asn.t -> b:Asn.t -> rel:Relationship.t -> unit
(** [add_link t ~a ~b ~rel] connects [a] and [b]; [rel] is what {e b} is to
    {e a} (e.g. [~rel:Customer] makes [b] a customer of [a]). Both ASes
    must exist; re-adding an existing link raises [Invalid_argument]. *)

val mem : t -> Asn.t -> bool
val relationship : t -> a:Asn.t -> b:Asn.t -> Relationship.t option
(** What [b] is to [a], if adjacent. *)

val neighbors : t -> Asn.t -> (Asn.t * Relationship.t) list
(** Neighbors of an AS with their relationship (what the neighbor is to
    this AS), in ascending ASN order. Raises if the AS is unknown. *)

val iter_neighbors : t -> Asn.t -> (Asn.t -> Relationship.t -> unit) -> unit
(** [iter_neighbors t asn f] calls [f] on what {!neighbors} lists, in the
    same order, without building the list. *)

val tier : t -> Asn.t -> int
val routers : t -> Asn.t -> router array
val router_address : t -> Asn.t -> int -> Ipv4.t
(** [router_address t asn i] is the address of router [i] of [asn]. *)

val owner_of_address : t -> Ipv4.t -> Asn.t option
(** Which AS owns a router address. *)

val as_list : t -> Asn.t list
(** All ASes, ascending. *)

val as_count : t -> int
val degree : t -> Asn.t -> int

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: AS count, link count, per-tier counts. *)
