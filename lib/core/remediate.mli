(** Remediation: the announcements LIFEGUARD makes — §3.1.

    A {!plan} describes an origin's address space: the production prefix
    carrying real traffic, an optional covering sentinel (less-specific,
    always announced unpoisoned, with an unused sub-prefix for repair
    probes), and the providers the origin announces through. The
    operations then craft the paper's announcements:

    - {!announce_baseline}: production announced as [O-O-O] so a later
      poison [O-A-O] has the same length and next hop — unaffected ASes
      converge instantly (§3.1.1);
    - {!poison}: production announced as [O-A-O] everywhere;
    - {!selective_poison}: [O-A-O] via a subset of providers and the plain
      baseline via the rest, steering the target AS off one of its links
      without cutting it off (§3.1.2, Fig. 3);
    - {!unpoison}: back to the baseline once the sentinel shows repair. *)

open Net

type plan = {
  origin : Asn.t;
  production : Prefix.t;
  sentinel : Prefix.t option;
      (** Covering less-specific; must contain [production] when given. *)
}

val plan : ?sentinel:Prefix.t -> origin:Asn.t -> production:Prefix.t -> unit -> plan
(** Validates that [sentinel] covers [production] and is strictly less
    specific. *)

val sentinel_unused_address : plan -> Ipv4.t option
(** An address inside the sentinel but outside the production prefix —
    probe replies to it must ride the (unpoisoned) sentinel route, which
    is what makes repair detectable while the poison is still in place. *)

val announce_baseline : Bgp.Network.t -> plan -> unit
(** Announce production ([O-O-O]) and the sentinel (plain [O]). *)

val poison : Bgp.Network.t -> plan -> target:Asn.t -> unit
(** Re-announce production as [O-A-O] through every provider. The
    sentinel stays on its baseline. *)

val selective_poison : Bgp.Network.t -> plan -> target:Asn.t -> poisoned_via:Asn.t list -> unit
(** Poisoned announcement through the providers in [poisoned_via], the
    prepended baseline through the others. The target then only accepts
    the unpoisoned route, shifting which of its links carries the
    origin's traffic. *)

val reannounce : Bgp.Network.t -> plan -> unit
(** Idempotently re-send the production prefix's {e current}
    announcement (poisoned or baseline) toward every up neighbor, even
    where the origin's adj-RIB-out believes it was already sent
    ({!Bgp.Network.refresh}). The watchdog's repair primitive after a
    session reset flushed the poison or a fault lost the update:
    re-calling {!poison} with the same target diffs to nothing. *)

val unpoison : Bgp.Network.t -> plan -> unit
(** Revert production to the baseline announcement. *)

val is_recovered :
  Dataplane.Probe.env -> plan -> through:Asn.t -> targets:Asn.t list -> bool
(** Sentinel-based repair detection (§4.2): ping each target from the
    sentinel's unused sub-prefix; recovered when some target answers
    {e and} the poisoned AS [through] itself answers such a probe —
    i.e. replies can again traverse paths through the problem AS. Without
    an unused sub-prefix this falls back to pinging [through] from the
    production space. *)
