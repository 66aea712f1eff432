(** The failure map: a deterministic table from (target, failure class)
    to the precomputed remediation.

    Backed by a total-order map over {!Failure_class.compare}, so a
    store's contents do not depend on insertion order — the plan
    subsystem's analogue of the repo-wide byte-identical-tables
    invariant. A remedy's poisoned AS path is built once, when the
    remedy is planned, and every hit announces that one value. *)

open Net

type remedy =
  | Poison of { path : Bgp.As_path.t }
      (** Poison the blamed AS; [path] is the [O-A-O] announcement the
          remediation will make. *)
  | Selective_poison of { path : Bgp.As_path.t; via : Asn.t list }
      (** Poison through the providers in [via] only (§3.1.2). *)
  | Alternate_path
      (** Forward failure: the origin should switch egress rather than
          poison (§2.3). *)
  | Hopeless of string  (** Poisoning cannot help; the reason is served verbatim. *)

val feasible : remedy -> bool
(** The memoized alternate-path feasibility bit a served plan replays
    through [Decide.decide ~feasible]. *)

val poisons : remedy -> bool
(** Does this remedy announce a poison? (Breaker invalidation applies.) *)

type t

val empty : t
val add : t -> target:Asn.t -> cls:Failure_class.t -> remedy -> t
val find : t -> target:Asn.t -> cls:Failure_class.t -> remedy option
val cardinal : t -> int
val filter : (target:Asn.t -> cls:Failure_class.t -> remedy -> bool) -> t -> t
