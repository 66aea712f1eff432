(** The rule catalogue of [lifeguard-lint]. See DESIGN.md, "Static
    analysis: domain-safety and determinism rules" for the rationale
    behind each family. *)

type t =
  | Dom_mut  (** module-level mutable containers in a Par-reachable library *)
  | Det_random  (** [Random.*] outside [lib/prng] *)
  | Det_clock  (** wall-clock reads inside [lib/] *)
  | Det_polyeq  (** polymorphic compare / hash / option-sentinel equality *)
  | Det_hashkey  (** [Hashtbl.t] keyed by a structured or boxed type *)
  | Perf_append  (** [@] building an accumulator inside a [let rec] or fold *)
  | Perf_scan
      (** [List.mem]/[List.assoc] inside a [let rec] or iteration closure, directly or
          through a local helper that scans a captured list *)
  | Perf_structeq
      (** structural [=]/[compare] on an interned BGP value ([As_path.t],
          [Route] entry fields) outside [lib/bgp] *)
  | Perf_boxed
      (** [mutable] record field of type [int64], [int32] or [nativeint]
          in [lib/]: each write allocates a box *)
  | Mli_missing  (** library [.ml] without a matching [.mli] *)
  | Obs_printf  (** bare stdout printing in [lib/] outside [lib/obs] *)
  | Rob_exn  (** catch-all [try ... with _ ->] handler inside [lib/] *)
  | Rob_snapshot
      (** in a [lib/] file defining a toplevel [capture] (the
          crash-recovery snapshot contract): a mutable or container-typed
          field of a locally declared record type that [capture]'s body
          never references — state not covered by the snapshot digest *)
  | Rob_marshal
      (** [Marshal] anywhere but [lib/workloads/template.ml], the one
          module that copies worlds inside the running binary *)
  | Eff_clock
      (** exported [lib/] function {e transitively} reaches the wall clock
          outside [Obs.Clock] — the interprocedural closure of
          {!Det_clock} (see {!Effects}) *)
  | Eff_random
      (** exported [lib/] function transitively reaches [Random] outside
          [lib/prng] *)
  | Eff_globalmut
      (** exported [lib/] function transitively reaches module-level
          mutable state outside the declared-exempt modules — the
          share-nothing invariant, proven interprocedurally *)
  | Plan_stale
      (** planner entry point (exported def in a plan subsystem's
          [planner.ml]) reaches the clock, [Random], or module-level
          mutable state — directly or transitively, exemptions
          notwithstanding. Precomputed plans must be pure functions of
          the world. *)
  | Dead_export
      (** exported [lib/] value that no other scanned file references:
          the callers that count are [lib/], [bin/], [examples/] and
          [perfbench/], never [test/] *)

val all : t list

val id : t -> string
(** Stable identifier, e.g. ["LG-DET-POLYEQ"]. Used in diagnostics and in
    [lint.baseline]. *)

val of_id : string -> t option

val describe : t -> string
(** One-line rationale printed alongside a diagnostic. *)
