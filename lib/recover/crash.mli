(** Seeded crash points at journal append boundaries.

    A crash spec names the one append at which the controller process
    "dies": the journal raises {!Crashed} at the requested boundary and
    the exception unwinds out of the simulation loop. The three
    boundaries are exactly the interesting write-ahead states:

    - {!Before_write}: neither the record nor its effect happened — the
      persisted journal is one record shorter than the intent;
    - {!After_write}: the record is persisted but the effect was never
      applied — the write-ahead case recovery must re-derive;
    - {!After_effect}: record and effect both happened; the crash loses
      only in-memory state.

    The harness (tests, CLI, perfbench) catches {!Crashed}, keeps whatever
    the sinks persisted, and resumes via deterministic re-execution
    ({!Journal.replaying}). *)

type boundary = Before_write | After_write | After_effect

exception Crashed of { boundary : boundary; append : int }

type spec = { boundary : boundary; append : int }
(** Crash at the [append]-th logged action (1-based) at [boundary]. *)

val boundary_equal : boundary -> boundary -> bool
val boundary_to_string : boundary -> string
val boundary_of_string : string -> boundary option

val boundaries : boundary list
(** All three classes, for crash-matrix sweeps. *)
