(** Syntactic rule pass over one [.ml] file, built on compiler-libs
    ([Parse] + [Ast_iterator]). No type information is used: every rule
    is a heuristic over names and shapes, tuned so false positives are
    grandfathered in the baseline instead of blocking builds. *)

type file_kind = {
  in_lib : bool;  (** under a [lib/] segment: det/dom rules apply *)
  prng_exempt : bool;  (** under [lib/prng]: the one place [Random] is legal *)
  obs_exempt : bool;
      (** under [lib/obs]: the sanctioned home for cross-domain
          observability state and the trace sink, so [LG-DOM-MUT] and
          [LG-OBS-PRINTF] do not apply *)
  bgp_exempt : bool;
      (** under [lib/bgp]: owns the path/route representations (and
          [As_path.equal]'s structural fallback), so [LG-PERF-STRUCTEQ]
          does not apply to its internals *)
  marshal_exempt : bool;
      (** [lib/workloads/template.ml]: the one place [Marshal] is legal
          ([LG-ROB-MARSHAL]) *)
}

val classify : string -> file_kind
(** Derive a {!file_kind} from a root-relative path. *)

val lib_kind : file_kind
(** [in_lib = true] with every exemption off — what fixture tests use to
    force library-strictness on files outside [lib/]. *)

type violation = {
  rule : Rule.t;
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  message : string;
}

(** An effect signal. This pass is the only place one is recognised:
    its per-file rules report from the sites, and {!Callgraph} attaches
    the same sites to definitions as the seeds of {!Effects}. *)
type signal =
  | Clock  (** [Sys.time], [Unix.gettimeofday], [Unix.time] *)
  | Random  (** any [Random.*] path *)
  | Global_mut
      (** a mutable-container creator ([ref], [Hashtbl.create],
          [Atomic.make], ...) applied, outside any function, in the
          right-hand side of a module-level non-function binding *)
  | Prints  (** a stdout printer ([Printf.printf], [print_endline], ...) *)
  | Catchall  (** a catch-all [try ... with _ ->] handler arm *)
  | Io  (** file, process or environment I/O ([open_in], [Sys.readdir], [Unix.*], ...) *)

type site = {
  signal : signal;
  path : string list;
      (** the value path as written ([Stdlib.]-qualified paths count);
          [[]] for {!Catchall} *)
  loc : Location.t;  (** the identifier, the application or the handler pattern *)
}

val parse_file : string -> (Parsetree.structure, string) result
(** Parse one implementation file; [Error] describes a parse failure.
    The driver parses each file once and shares the AST between this
    pass and {!Callgraph}. *)

type scanned = {
  file : string;
  kind : file_kind;
  ast : Parsetree.structure;
  violations : violation list;  (** the per-file rules' reports *)
  sites : site list;  (** every signal site of the file, in walk order *)
}

val scan_ast : kind:file_kind -> file:string -> Parsetree.structure -> scanned
(** Run the syntactic rules over an already-parsed structure. Sites are
    recorded whatever [kind] says; only the reports depend on it. *)

val scan_file : kind:file_kind -> string -> (violation list, string) result
(** [parse_file] + [scan_ast], keeping the reports. *)

val mli_violations : ?force_lib:bool -> string list -> violation list
(** The [LG-MLI-MISSING] pass: every library [.ml] in the list without a
    sibling [.mli]. [force_lib] treats all files as library files. *)

val compare_violation : violation -> violation -> int
(** Order by file, line, column, rule id — the report order. *)
