(** BGP community attributes.

    Communities are opaque [(asn, value)] tags attached to announcements.
    The paper (§2.3) found them insufficient for failure avoidance — they
    are not standardized and many ASes strip them — so this model supports
    just enough: tagging, a well-known [no_export] plus a provider-defined
    "do not export to peers" convention, and per-AS stripping. *)

type t = { asn : int; value : int }

val make : asn:int -> value:int -> t
val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Deterministic integer mix of both fields (announcement interning). *)

val pp : Format.formatter -> t -> unit

val no_export : t
(** Well-known NO_EXPORT (65535:65281): do not advertise beyond the
    receiving AS. *)

val is_no_export : t -> bool

val is_no_export_to_peers : asn:int -> t -> bool
(** Whether the community is the SAVVIS-style provider community
    ["asn:666"] asking [asn] not to export the route to its peers. Only
    honored by [asn] itself. *)
