(** Injected wall-clock source for span timing.

    Libraries must not read the wall clock directly (rule [LG-DET-CLOCK]):
    a wall-clock read inside a trial closure would make the trace
    timestamp stream — though never the experiment tables — depend on the
    machine. Instead the outermost binary ([bin/lifeguard_cli]) installs
    a source once at startup, and library code asks {!now}. When no source is installed, {!now} is [0.], so
    span durations degrade to zero rather than to nondeterminism. *)

val set : (unit -> float) -> unit
(** Install the wall-clock source (e.g. [Unix.gettimeofday]). Call once,
    from the outermost binary, before any domains are spawned. *)

val clear : unit -> unit
(** Remove the source; {!now} returns [0.] again. *)

val now : unit -> float
(** Current wall-clock reading from the installed source, or [0.] when
    none is installed. *)
