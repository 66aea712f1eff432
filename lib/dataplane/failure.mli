(** Failure injection.

    The paper targets {e silent} failures: a router keeps announcing a BGP
    route but drops the packets ([Data_only] mode — the control plane
    never reacts, which is exactly why poisoning is needed). Failures can
    also take the control plane down with them ([Control_and_data], an
    ordinary link/router outage that BGP withdraws around). A failure can
    be scoped to an AS or an inter-AS link, restricted to one traversal
    direction of a link, and restricted to packets heading into one
    destination prefix — the combination that produces the paper's
    unidirectional "reverse-path" failures (§4.1): traffic toward the
    monitored origin dies inside the failed AS while the forward direction
    still works. *)

open Net

type scope =
  | Node of Asn.t  (** Packets transiting (or arriving at) this AS. *)
  | Link of Asn.t * Asn.t  (** Either traversal direction of the link. *)
  | Link_dir of Asn.t * Asn.t  (** Only [fst -> snd] traversals. *)

type mode =
  | Data_only  (** Silent: BGP keeps announcing; packets die. *)
  | Control_and_data  (** BGP sessions drop too. *)

type spec = {
  scope : scope;
  mode : mode;
  toward : Prefix.t option;
      (** When set, only packets destined into this prefix are affected —
          a unidirectional failure with respect to that origin. *)
}

val spec : ?mode:mode -> ?toward:Prefix.t -> scope -> spec
(** [mode] defaults to [Data_only] (the interesting case). *)

type set
(** A mutable collection of active failures. *)

val create : unit -> set
val active : set -> spec list

val add : set -> spec -> unit
val remove : set -> spec -> unit
(** Remove a failure equal to [spec]; no-op when absent. [add] and
    [remove] are the only writers of a set; each one bumps its
    {!version}. *)

val version : set -> int
(** A counter that moves on every {!add} and {!remove} (even a [remove]
    of an absent failure). While it is unchanged, {!blocks_hop}
    and {!blocks_source} answer as they did: what {!Probe}'s reachability
    memo checks before reusing a verdict. *)

val blocks_hop : set -> from_:Asn.t -> to_:Asn.t -> dst:Ipv4.t -> spec option
(** Does any active failure kill a packet traversing the [from_ -> to_]
    link and then transiting [to_], heading to [dst]? Returns the first
    matching failure. Node failures match when [to_] is the failed AS;
    link failures when the pair matches. *)

val blocks_source : set -> Asn.t -> dst:Ipv4.t -> spec option
(** Does a node failure at the packet's first AS kill it on departure? *)

val inject : Bgp.Network.t -> set -> spec -> unit
(** Activate a failure: adds it to the set and, for [Control_and_data],
    takes the BGP sessions down ({!Bgp.Network.fail_link} /
    [fail_node]). *)

val heal : Bgp.Network.t -> set -> spec -> unit
(** Deactivate: removes from the set and restores BGP sessions for
    [Control_and_data] failures. *)
