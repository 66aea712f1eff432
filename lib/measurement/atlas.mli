(** The historical path atlas.

    LIFEGUARD's isolation hinges on knowing what paths {e used} to look
    like: during a failure it probes the hops of recently-observed forward
    and reverse paths to find where reachability breaks (§4.1). The atlas
    stores timestamped AS-level forward and reverse paths per
    (vantage point, destination) pair and accounts for the refresh cost
    (§5.4: an amortized ~10 IP-option probes and ~2 traceroutes per
    refreshed reverse path, thanks to caching). *)

open Net

type snapshot = {
  taken_at : float;
  path : Asn.t list;  (** AS-level, measuring side first. *)
}

type t

val create : unit -> t

val forward_history : t -> vp:Asn.t -> dst:Asn.t -> snapshot list
(** Newest first. *)

val reverse_history : t -> vp:Asn.t -> dst:Asn.t -> snapshot list

val latest_forward : t -> vp:Asn.t -> dst:Asn.t -> ?before:float -> unit -> snapshot option
(** The newest forward snapshot, or the newest taken at or before
    [before]. *)

val candidate_hops : t -> vp:Asn.t -> dst:Asn.t -> Asn.Set.t
(** Every AS seen on any stored path between the pair — the isolation
    suspect universe. *)

val refresh_all : t -> Dataplane.Probe.env -> vps:Asn.t list -> dsts:Asn.t list -> now:float -> unit
(** For every (vp, dst) pair, measure the current forward path
    (traceroute) and reverse path (reverse traceroute emulation, using
    [vp] itself as the spoof helper) and record both. Probe costs accrue
    on the environment.

    A pair keeps its last measurement: the forward path, the reverse
    path (or none, when reverse traceroute was infeasible), the probes
    each half charged, and the env and {!Dataplane.Probe.stamp} it was
    taken under. Refreshed in the same env at the same stamp, the pair
    charges those probes in the same order and records those paths;
    the histories, [probes_sent] and [meas.probes] end exactly as a
    fresh measurement would leave them. *)

val pair_count : t -> int
