(** Comment-pragma suppressions.

    [(* lint: allow LG-EFF-CLOCK *)] (one or more rule ids, comma- or
    space-separated) silences matching violations reported on the
    pragma's line or on the line directly below it. Prefer burning a
    violation or baselining it; a pragma is for the rare case where the
    rule is a documented false positive at one site. *)

type t
(** The pragmas of one file. *)

val of_lines : string list -> t
(** Text-scan lines for pragma comments (the unit under {!filter}, which
    reads files, unreadable ones as no-pragmas). *)

val suppresses : t -> rule:string -> line:int -> bool
(** Does a pragma on [line] or [line - 1] name [rule]? *)

val filter : Source_scan.violation list -> Source_scan.violation list
(** Drop suppressed violations, reading each distinct file at most
    once. *)
