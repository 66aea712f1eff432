(** Failure isolation — §4.1 of the paper.

    Given a detected outage between a vantage point [src] and a
    destination, the pipeline (1) isolates the failing direction with
    spoofed pings, (2) measures the path in the working direction with a
    spoofed traceroute or reverse traceroute, (3) probes the hops of
    historical atlas paths in the failing direction from the source and
    from other vantage points, and (4) prunes reachable hops and blames
    the AS at the {e reachability horizon} — the first hop (walking
    outward from the working side) that lost connectivity, excluding
    routers that never answer probes. *)

open Net

type direction =
  | Forward_failure  (** Packets from [src] toward the target die. *)
  | Reverse_failure  (** The target's packets back to [src] die. *)
  | Bidirectional  (** Both directions fail. *)
  | Destination_unreachable  (** No vantage point reaches the target: not isolatable. *)
  | No_failure  (** The path works after all (transient). *)

val direction_to_string : direction -> string

type blame =
  | Blamed_as of Asn.t
  | Blamed_link of Asn.t * Asn.t  (** Failure pinned to an inter-AS link. *)
  | Unlocated  (** Evidence insufficient. *)

val blamed_as : blame -> Asn.t option
(** The AS to poison: the blamed AS, or the far side of a blamed link. *)

type hop_status =
  | Reachable_from_src  (** Still answers probes from the source. *)
  | Reachable_elsewhere  (** Only answers other vantage points. *)
  | Unreachable  (** Answers nobody although it used to. *)
  | Silent  (** Never answers probes; no evidence either way. *)

type diagnosis = {
  src : Asn.t;
  dst : Asn.t;
  direction : direction;
  blame : blame;
  suspects : (Asn.t * hop_status) list;  (** Hop ASes with their probe evidence. *)
  working_path : Asn.t list option;  (** Measured path in the working direction. *)
  traceroute_blame : Asn.t option;
      (** What an operator using only traceroute would conclude (§5.3's
          comparison baseline). *)
  probes_used : int;
  elapsed : float;  (** Modeled wall-clock isolation latency, seconds. *)
}

val pp_diagnosis : Format.formatter -> diagnosis -> unit

type context = {
  env : Dataplane.Probe.env;
  atlas : Measurement.Atlas.t;
  responsiveness : Measurement.Responsiveness.t;
  vantage_points : Asn.t list;  (** Including or excluding [src]; both fine. *)
  source_overrides : (Asn.t * Ipv4.t) list;
      (** Probe source address per AS, overriding the default (the AS's
          first router address). A LIFEGUARD origin probes from inside its
          production prefix so that reverse failures scoped to its
          announced space are visible to its own probes. *)
}

val source_of : context -> Asn.t -> Ipv4.t
(** The probe source address an AS uses, honoring overrides. *)

val isolate : context -> src:Asn.t -> dst:Asn.t -> diagnosis
(** Run the full pipeline for an outage between [src] and the destination
    AS [dst] (targets are identified by their responding AS). *)
