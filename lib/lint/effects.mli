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

type eff = Clock | Random | Global_mut | Prints | Catchall | Io

val label : eff -> string

type origin =
  | Prim of string * int  (** primitive path as written, line *)
  | Call of int * int  (** callee def id, call-site line *)
  | Global of int * int  (** mutable-global def id, reference line *)

type t

val analyse : Callgraph.t -> t

val has : t -> int -> eff -> bool

val trace : t -> int -> eff -> string list
(** Witness chain from a definition to the primitive that grounds the
    effect, as display names, e.g.
    [\["Main.timed"; "Unix.gettimeofday"\]]. *)

val row : t -> int -> string
(** Comma-joined effect labels of one definition, or ["pure"]. *)

val summary_rows : t -> (string * string) list
(** (display, row) for every exported definition of every library file,
    sorted by display name — the [--effects] table. *)

val planner_file : string -> bool
(** Is this path a plan subsystem's [planner.ml] (a [planner.ml] whose
    directory name starts with ["plan"])? Exported defs of such files
    are held to [LG-PLAN-STALE]'s purity bar. *)

val violations : t -> Source_scan.violation list
(** The [LG-EFF-CLOCK] / [LG-EFF-RANDOM] / [LG-EFF-GLOBALMUT] reports:
    exported library functions that transitively (never directly — the
    syntactic rules own those sites) reach the wall clock / [Random] /
    module-level mutable state, with the witness chain in the message.
    Plus [LG-PLAN-STALE]: planner entry points ({!planner_file}) must be
    effect-pure — no clock, [Random], or module-level mutable state
    reachable at all, direct uses and exempt-module escapes included. *)
