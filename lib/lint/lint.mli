(** lifeguard-lint: stdlib-only static analysis (compiler-libs) enforcing
    the domain-safety, determinism and hot-path rules the parallel
    experiment runner depends on — per-file syntactic rules plus the
    interprocedural {!Callgraph}/{!Effects} pass behind the [LG-EFF-*]
    family and [LG-DEAD-EXPORT]. See DESIGN.md, "Static analysis". *)

module Rule = Rule
module Source_scan = Source_scan
module Baseline = Baseline
module Callgraph = Callgraph
module Effects = Effects
module Pragma = Pragma
module Report = Report

val collect_ml_files : string list -> string -> string list
(** [collect_ml_files acc path] prepends every [.ml] under [path] to
    [acc], skipping hidden and [_]-prefixed directories. *)

type report = {
  violations : Source_scan.violation list;
  errors : (string * string) list;  (** file, parse error *)
}

val scan : ?kind:Source_scan.file_kind -> dirs:string list -> unit -> report
(** Scan every [.ml] under [dirs] (sorted, deterministic): each file is
    parsed once and shared between the syntactic pass, the
    [LG-MLI-MISSING] filesystem pass, and the interprocedural pass over
    one call graph of all the files ([LG-EFF-*] and [LG-DEAD-EXPORT] on
    the library files; the others are callers). Files under a
    [perfbench] directory are read for their references only: no rule is
    checked on them. Pragma-suppressed violations are dropped. [kind]
    overrides per-path classification — tests use
    {!Source_scan.lib_kind} to force library strictness on fixtures. *)

val analyse : ?kind:Source_scan.file_kind -> dirs:string list -> unit -> Effects.t * (string * string) list
(** Build the callgraph over the files under [dirs] and infer effect
    summaries; also returns parse errors. *)

val main : ?out:Format.formatter -> string array -> int
(** The CLI ([bin/lifeguard_lint]): returns the exit code. Informational
    output (help, rule listing, baseline-write confirmation, the
    [--effects] table) goes to [out] (default [Format.std_formatter]);
    reports go to stdout/stderr as before. *)
