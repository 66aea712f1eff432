(** The checked-in grandfather list ([lint.baseline]).

    Entries are per (rule, file) {e counts}, not per line, so unrelated
    edits that shift line numbers never invalidate the baseline. An
    {e additional} violation of a rule in a file trips [--check], and so
    does a count that fell below its entry. *)

type t

val of_violations : Source_scan.violation list -> t

val load : string -> (t, string) result
(** A missing file loads as the empty baseline (everything is "new"). *)

val save : string -> t -> unit

type verdict = {
  fresh : (string * int * int * Source_scan.violation list) list;
      (** (["RULE file"], allowed, found, violations) for every key whose
          count now exceeds the baseline — these fail the build *)
  stale : (string * int * int) list;
      (** baseline keys whose count dropped below the grandfathered
          number — these fail [--check] too, until the baseline is
          regenerated *)
}

val check : t -> Source_scan.violation list -> verdict
