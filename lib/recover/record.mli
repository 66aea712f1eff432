(** Typed write-ahead journal records.

    One record per externally-visible controller action — the
    announcements the rest of the Internet can observe (poison,
    re-announce, unpoison) plus the controller decisions that change
    what it will announce later (breaker trips, plan demotions, terminal
    per-outage outcomes). The journal appends the record {e before} the
    action takes effect, so after a crash the persisted prefix is always
    a superset of the effects actually applied (minus at most the one
    record whose effect was still pending).

    Serialization is deterministic and byte-stable: integers in decimal,
    floats as ["%h"] hex floats (bit-exact round trips, infinities
    included), free text percent-escaped so every record is exactly one
    ['|']-separated line. A deterministic re-execution of the same world
    therefore reproduces the journal byte-for-byte — which is the
    property the replay verifier checks. *)

open Net

type outcome_kind = Repaired | Stood_down | Gave_up

type outcome = { target : Asn.t; kind : outcome_kind; reason : string }
(** Terminal state of one target's outage: [Repaired] when the sentinel
    confirmed the repair, [Stood_down] when there was nothing to do
    (transient, hopeless diagnosis), [Gave_up] when the repair itself
    failed — retry budgets exhausted, the pipeline timed out, the poison
    was rolled back, or the circuit breaker refused it. [reason] is the
    stand-down or give-up reason, empty for [Repaired]. The controller
    journals it and reads it back in this one shape
    ([Lifeguard.Orchestrator.outcomes]). *)

type action =
  | Poison_announce of { target : Asn.t; poison : Asn.t; planned : bool }
      (** [poison] announced for the production prefix to repair
          [target]'s outage; [planned] when served from the plan cache. *)
  | Poison_reannounce of { poison : Asn.t; announcement : int }
      (** Idempotent watchdog re-announcement; [announcement] is the
          cumulative announcement count including this one. *)
  | Unpoison of { poison : Asn.t; repaired : bool; reason : string }
      (** Withdrawal back to baseline: [repaired] after a confirmed
          recovery, otherwise a rollback with its cause. *)
  | Breaker_trip of { poison : Asn.t; reason : string }
      (** The circuit breaker opened for [poison]: never poison it again. *)
  | Plan_demotion of { poison : Asn.t; reason : string }
      (** A served plan diverged from its watchdog outcome; the cache
          entry is demoted back to compute-fresh. *)
  | Outcome of outcome  (** Terminal per-outage outcome. *)

type t = { seq : int; at : float; action : action }
(** [seq] is the journal position (0-based), [at] simulation time. *)

val to_line : t -> string
(** One line, no trailing newline. *)

val of_line : string -> (t, string) result

val escape : string -> string
(** Percent-encode ['%'], ['|'], [' '] and line breaks (exposed for the
    snapshot codec, which reuses the framing). *)

val unescape : string -> string option

val float_field : float -> string
(** ["%h"] rendering used for every float in the journal and snapshot. *)

