(** Interprocedural call graph over the library tree and its callers
    (functor-free, untyped, heuristic — see the .ml header). Unnamed
    toplevel items ([let () = ...]) are definitions too, never exported,
    so their references count.

    Built from already-parsed structures so the driver parses each file
    exactly once. Resolution understands sibling modules
    ([Speaker.create]), library umbrella modules ([Bgp.Speaker.create],
    with library names read from dune files — lib/core is [Lifeguard]),
    file-level and [let open] opens, and module aliases
    ([module R = Retry]). Each definition collects the signal sites
    {!Source_scan} recorded in its body, for {!Effects} to seed from. *)

type def = {
  id : int;
  file : string;
  path : string list;  (** module path within the file, value name last *)
  display : string;  (** e.g. ["Bgp.Speaker.create"] *)
  line : int;
  col : int;
  exported : bool;
      (** listed in the sibling [.mli]; no [.mli] exports everything *)
  mutable_global : bool;
      (** module-level non-function binding building a mutable container:
          its right-hand side holds a [Global_mut] site *)
  kind : Source_scan.file_kind;
  mutable calls : (int * int) list;  (** resolved (callee id, line), source order *)
  mutable sites : Source_scan.site list;
      (** its body's reference sites that resolve to no definition, and
          its catch-all handler sites, in walk order *)
}

type t = {
  defs : def array;
  sccs : int list list;
      (** Tarjan SCCs in callee-first order: every SCC appears after all
          SCCs it has edges into, so one forward sweep is a fixpoint *)
}

val build : files:Source_scan.scanned list -> t
(** Build the graph over the given parsed files. Files are sorted by
    path and definitions numbered in source order, so the graph — and
    everything derived from it — is deterministic. *)
