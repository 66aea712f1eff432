(** Probe-budget admission: token buckets on the simulation clock.

    LIFEGUARD's measurement load must stay bounded no matter how many
    outages are in flight (§4.4 argues the total is modest); the fleet
    service enforces that with a global token bucket. Tokens are probe
    pairs; buckets refill lazily from the current simulation time, so
    admission is O(1) with no timers. *)

open Net

type t

val create : rate:float -> burst:float -> unit -> t
(** A bucket refilling at [rate] tokens/second, holding at most [burst],
    initially full. *)

(** The fleet's admission point: one global bucket that every vantage
    point draws on. *)
type scheduler

val scheduler : global:t -> unit -> scheduler

val admit_vp : scheduler -> vp:Asn.t -> now:float -> cost:int -> bool
(** Admit a request made on behalf of vantage point [vp] through the
    global bucket: take [cost] tokens if available; refusal consumes
    nothing. [now] must be the current simulation time (buckets refill
    lazily from it). *)

val capture : scheduler -> string
(** Canonical rendering of the global bucket's token level and counters,
    the budget share of the snapshot digest: one line, named
    ["global"]. Pure read. *)

val scheduler_granted : scheduler -> int
(** Total cost admitted through the global bucket. *)

val scheduler_denied : scheduler -> int
(** Total cost refused by the global bucket. *)
