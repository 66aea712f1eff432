(** Effect summaries inferred over the {!Callgraph} and the [LG-EFF-*]
    rule family.

    The lattice is the powerset of six effect atoms; [analyse] seeds
    them from the same syntactic signals the per-file detectors use
    (plus edges into module-level mutable bindings) and propagates
    [effects f = seed f U union (effects callee)] to a fixpoint over
    SCCs, callee-first. Seeds inside the declared-exempt modules
    ([lib/obs] for state/printing, [lib/prng] for randomness) are not
    planted, so the sanctioned observability layer does not taint every
    instrumented function. *)

type t

val analyse : Callgraph.t -> t

val summary_rows : t -> (string * string) list
(** (display, row) for every exported definition of every library file,
    sorted by display name — the [--effects] table. *)

val violations : t -> Source_scan.violation list
(** The [LG-EFF-CLOCK] / [LG-EFF-RANDOM] / [LG-EFF-GLOBALMUT] reports:
    exported library functions that transitively (never directly — the
    syntactic rules own those sites) reach the wall clock / [Random] /
    module-level mutable state, with the witness chain in the message.
    Plus [LG-PLAN-STALE]: planner entry points (exported definitions of a
    [planner.ml] whose directory name starts with ["plan"]) must be
    effect-pure — no clock, [Random], or module-level mutable state
    reachable at all, direct uses and exempt-module escapes included. *)
