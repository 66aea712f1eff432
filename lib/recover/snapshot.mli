(** Snapshot: a state digest plus the head report.

    Recovery of a {e byte-identical} run goes through deterministic
    re-execution verified against the journal ({!Journal.replaying}):
    the heap of the discrete-event engine holds closures and is never
    serialized. A resumed run re-executes from [t = 0], so its report is
    already the whole-run report and a snapshot restores nothing. It is
    a replay-fidelity check at its mark:

    - [state]: the {!digest} of the controller's canonical captures —
      orchestrator (pipelines with phase and deadline, the active poison
      and its watchdog deadlines, queue, pacing, outage starts, breaker,
      counters, event and outcome log lengths), probe-budget buckets and
      plan cache;
    - [head]: the rendered report of the run up to the mark, which holds
      every service counter.

    When re-execution reaches the snapshot's mark, the freshly captured
    snapshot must render byte-identically — {!Mismatch} otherwise — so a
    digest checks replay fidelity exactly as well as the captures
    themselves would.

    Rendering is line-based, deterministic and byte-stable (floats as
    hex floats, free text percent-escaped); {!equal} is byte equality
    of {!render}. *)

type t = {
  at : float;  (** simulation time of the capture *)
  mark : int;  (** 1-based snapshot index within the run *)
  seed : int;
  config_fp : string;  (** fingerprint of (config, seed); resume refuses a mismatch *)
  journal_len : int;  (** journal records persisted at capture time *)
  state : string;  (** {!digest} of the orchestrator, budget and plan captures *)
  head : string list;  (** rendered report of the run up to the mark *)
}

exception Mismatch of { mark : int }
(** Re-execution reached [mark] but captured a different snapshot. *)

val digest : string -> string
(** 64-bit FNV-1a (truncated to OCaml's 63-bit [int]) as 16 hex digits.
    Not cryptographic: it detects replay drift, not tampering. *)

val render : t -> string
(** Deterministic multi-line rendering: header [recover-snapshot v3],
    then the [at], [mark], [seed], [config], [journal], [state] and
    [head] lines, ending with ["end\n"]. *)

val parse_result : string -> (t, string) result
(** Inverse of {!render}. Total: any input either parses or yields an
    error naming the first malformed line (or the missing header,
    field or terminator). *)

val equal : t -> t -> bool
(** Byte equality of {!render}. *)
