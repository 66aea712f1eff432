(** The write-ahead operations journal.

    Every externally-visible controller action goes through {!logged}:
    the typed record is serialized and handed to the sink {e before} the
    effect runs. The journal itself does no IO — the sink is injected
    (tests collect lines in memory; the CLI daemon appends to a file and
    flushes per line), mirroring how [Obs.Trace] owns no channel.

    Two modes:

    - {!create}: a fresh journal for a first run.
    - {!replaying}: recovery by deterministic re-execution. The resumed
      run re-executes from [t = 0] with the persisted lines as the
      expected prefix; every re-logged action is compared byte-for-byte
      against the prefix and a mismatch raises {!Divergence}. Once the
      prefix is exhausted the journal continues as a fresh one. Replay
      is what makes recovery exactly-once: an action whose record was
      persisted but whose effect was lost ({!Crash.After_write}) is
      re-derived — and re-applied exactly once — by re-execution, never
      blindly re-issued from the log.

    Crash injection ({!Crash.spec}) hooks the three append boundaries;
    the raised {!Crash.Crashed} unwinds out of the simulation loop and
    the harness resumes from the sinks' contents. *)

exception Divergence of { seq : int; expected : string option; got : string }

type t

val create : ?sink:(string -> unit) -> ?crash:Crash.spec -> unit -> t
(** Fresh journal. [sink] receives each persisted line (no newline), in
    order, exactly when it becomes durable. *)

val replaying : ?sink:(string -> unit) -> ?crash:Crash.spec -> expected:string list -> unit -> t
(** Recovery journal: verify the first [List.length expected] appends
    against [expected], then continue fresh. The sink receives every
    line again (the resumed daemon rewrites its journal file, which
    also truncates any torn final line). *)

val logged : t -> at:float -> Record.action -> effect:(unit -> unit) -> unit
(** [logged j ~at action ~effect] appends the record, then runs
    [effect] — the write-ahead ordering. Crash checks fire before the
    write, between write and effect, and after the effect.

    @raise Crash.Crashed at an armed crash point.
    @raise Divergence when a replayed append does not reproduce the
    persisted line. *)

val length : t -> int
(** Records appended so far (replayed + fresh). *)

val replayed : t -> int
(** Records verified against the replay prefix so far. *)

val lines : t -> string list
(** Every persisted line, oldest first. *)

val records : t -> Record.t list
(** The records behind {!lines}, oldest first. *)

val parse_lines : string -> (Record.t list, string) result
(** Parse the lines of a recovered journal file, given its whole text
    (empty lines skipped). Whatever follows the last newline is a torn
    write and is dropped; every complete line must parse, and the first
    that does not is corruption and returns [Error]. *)
