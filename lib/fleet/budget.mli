(** Probe-budget admission: token buckets on the simulation clock.

    LIFEGUARD's measurement load must stay bounded no matter how many
    outages are in flight (§4.4 argues the total is modest); the fleet
    service enforces that with a global token bucket, optionally capped
    per vantage point. Tokens are probe pairs; buckets refill lazily from
    the current simulation time, so admission is O(1) with no timers. *)

open Net

type t

val create : rate:float -> burst:float -> unit -> t
(** A bucket refilling at [rate] tokens/second, holding at most [burst],
    initially full. *)

val admit : t -> now:float -> cost:int -> bool
(** Take [cost] tokens if available; refusal consumes nothing. [now] must
    be the current simulation time (buckets refill lazily from it). *)

val granted : t -> int
(** Total cost admitted. *)

val denied : t -> int
(** Total cost refused. *)

(** A global bucket plus lazily created per-vantage-point caps. *)
type scheduler

val scheduler : ?per_vp_rate:float -> ?per_vp_burst:float -> global:t -> unit -> scheduler
(** Per-VP caps default to unlimited ([infinity]), collapsing to the
    global bucket alone. *)

val admit_vp : scheduler -> vp:Asn.t -> now:float -> cost:int -> bool
(** Admit only if both the VP's bucket and the global bucket agree; a
    refusal by either consumes nothing from the global bucket. *)

val capture : scheduler -> string
(** Canonical rendering of every bucket's token level and counters, the
    budget share of the snapshot digest: ["global"] first, then the
    per-VP caps sorted by ASN (named ["vp:<asn>"]), one line each. Pure
    read. *)

val scheduler_granted : scheduler -> int
(** Total cost admitted through the global bucket. *)

val scheduler_denied : scheduler -> int
(** Total cost refused by either the global bucket or any per-VP cap;
    each refusal is counted exactly once. *)
