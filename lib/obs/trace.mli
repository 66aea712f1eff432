(** Structured trace sink: JSONL events behind a zero-cost-when-disabled
    guard.

    Each event is one line of JSON with a fixed envelope —

    {v
    {"ts":123.456789,"domain":4,"span":"bgp.deliver","kv":{"from":7018,...}}
    v}

    - ["ts"] is the timestamp the instrument supplied (simulation time in
      the engine-driven layers, {!Clock.now} wall time in the runner);
    - ["domain"] is the recording domain's id — useful for grouping, but
      {e not} stable across runs or [--jobs] values;
    - ["span"] names the event category;
    - ["kv"] carries the event's payload pairs.

    Events are buffered per domain (lock-free) and flushed to the sink
    under a mutex when a buffer fills and at {!close}. Consequently the
    {e order} of lines in a trace file is not deterministic across
    [--jobs] values — but the multiset of events is: every trial forks a
    template built once per run or rebuilds its world from the seed, so
    per-span event counts are invariants
    (checked by the golden test in [test/test_obs.ml]).

    When disabled (the default), {!on} is a single atomic flag read;
    instrumentation sites guard event construction with it so the hot
    paths allocate nothing. *)

type value = Int of int | Float of float | Bool of bool | Str of string
(** Payload values; rendered as native JSON types. *)

val on : unit -> bool
(** Whether a sink is installed. Instrumentation must guard with this
    ([if Trace.on () then Trace.event ...]) so payload construction is
    never paid when tracing is off. *)

val enable_file : string -> unit
(** Open [path] (truncating) and send subsequent events to it. *)

val enable_buffer : Buffer.t -> unit
(** Send subsequent events to an in-memory buffer (used by tests). The
    caller owns the buffer; it is appended to under the sink mutex. *)

val event : ts:float -> span:string -> (string * value) list -> unit
(** Record one event. No-op when no sink is installed (but prefer
    guarding the call site with {!on} — the argument list is allocated by
    the caller). *)

val close : unit -> unit
(** Flush every domain's buffer, close the sink, and disable tracing.
    Idempotent. Call only when recording domains are quiescent. *)
