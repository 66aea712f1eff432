(** lifeguard-lint: stdlib-only static analysis (compiler-libs) enforcing
    the domain-safety, determinism and hot-path rules the parallel
    experiment runner depends on — per-file syntactic rules plus the
    interprocedural {!Callgraph}/{!Effects} pass behind the [LG-EFF-*]
    family. See DESIGN.md, "Static analysis". *)

module Rule = Rule
module Source_scan = Source_scan
module Baseline = Baseline
module Callgraph = Callgraph
module Effects = Effects
module Pragma = Pragma
module Report = Report

val default_dirs : string list
(** [["lib"; "bin"; "bench"; "examples"]] *)

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
    [LG-MLI-MISSING] filesystem pass, and the interprocedural
    [LG-EFF-*] pass over the library files. Pragma-suppressed
    violations are dropped. [kind] overrides per-path classification —
    tests use {!Source_scan.lib_kind} to force library strictness on
    fixtures. *)

val analyse : ?kind:Source_scan.file_kind -> dirs:string list -> unit -> Effects.t * (string * string) list
(** Build the callgraph over the library files under [dirs] and infer
    effect summaries; also returns parse errors. *)

val effects_table : ?kind:Source_scan.file_kind -> dirs:string list -> unit -> string * (string * string) list
(** The [--effects] table: one deterministic row per exported library
    definition, plus parse errors. *)

val run_check :
  ?format:Report.format -> oc:out_channel -> baseline_path:string -> report -> int
(** Diff a report against a baseline file; print fresh violations and
    stale entries ([Report.Github] adds [::error] workflow commands for
    fresh violations); return the process exit code (0 clean, 1 fresh
    violations or a stale entry, 2 unreadable baseline). A stale entry
    grandfathers more violations than the tree has, so the baseline can
    only shrink in the change that fixes a violation. *)

val main : ?out:Format.formatter -> string array -> int
(** The CLI ([bin/lifeguard_lint]): returns the exit code. Informational
    output (help, rule listing, baseline-write confirmation, the
    [--effects] table) goes to [out] (default [Format.std_formatter]);
    reports go to stdout/stderr as before. *)
