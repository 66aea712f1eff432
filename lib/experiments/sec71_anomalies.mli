(** §7.1 Poisoning anomalies: networks that bend the rules.

    Two real-world quirks limited the paper's poisonings. Some ASes
    disable or relax loop detection to run multi-site networks under one
    ASN — best practice caps the occurrences of their own ASN instead
    (AS286 accepts one), so inserting the ASN {e twice} still poisons
    them. And some providers (Cogent) refuse customer announcements whose
    path contains one of their tier-1 peers, so poisoning a tier-1
    through such a provider does not propagate — but announcing through a
    different provider worked, and 76% of collector peers still found
    alternate paths.

    The experiment builds an Internet where a fraction of transit ASes
    relax loop detection and where one of the origin's providers applies
    Cogent-style filtering, then measures exactly those effects. *)

type result = {
  relaxed_ases : int;  (** Loop-relaxed transit ASes holding a baseline route. *)
  single_poison_ineffective : int;  (** Relaxed ASes that kept their route. *)
  double_poison_effective : int;  (** ... and dropped it with the ASN doubled. *)
  tier1_poison_via_filter_reached : int;
      (** Feeds with a route when the tier-1 poison goes via the filtering
          provider (propagation suppressed along that branch). *)
  tier1_poison_via_clean_reached : int;  (** Same, via a non-filtering provider. *)
  feeds : int;
}

val run : ases:int -> jobs:int -> seed:int -> unit -> result
(** Build an [ases]-AS world where 30% of the tier-2/3 transits relax
    loop detection, and run each poisoning in its own copy of it on
    [jobs] workers. Deterministic in [seed]; the result does not depend
    on [jobs]. *)

val to_tables : result -> Stats.Table.t list
