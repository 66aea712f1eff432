(* Per-function effect summaries over the {!Callgraph}, propagated to a
   fixpoint over SCCs.

   Seeds are the signal sites Source_scan recorded and Callgraph attached
   to each definition (wall-clock reads, [Random], stdout printers,
   catch-all handlers, file/process I/O), plus one interprocedural signal
   the per-file pass cannot see: an edge into a module-level mutable
   binding of any file.
   Propagation is the transitive closure: [effects f = seed f U union
   (effects callee)]. Within an SCC every member reaches every other, so
   all members share the SCC's union; SCCs are processed callee-first, so
   one linear sweep plus a bounded inner loop per SCC reaches the
   fixpoint — apparent cross-module recursion cannot diverge.

   Seeds arising inside declared-exempt modules are not planted at all:
   [lib/obs] owns the sanctioned cross-domain state and the trace sink
   (its merges are order-insensitive by design), and [lib/prng] is the
   sanctioned randomness home — otherwise every instrumented function in
   the tree would inherit [Global_mut] from a [Metrics.incr]. *)

type eff = Source_scan.signal = Clock | Random | Global_mut | Prints | Catchall | Io

let all_effects = [ Clock; Random; Global_mut; Prints; Catchall; Io ]

let label = function
  | Clock -> "clock"
  | Random -> "random"
  | Global_mut -> "globalmut"
  | Prints -> "prints"
  | Catchall -> "catchall"
  | Io -> "io"

type origin =
  | Prim of string  (** the signal site: its path as written *)
  | Call of int * int  (** callee def id, call-site line *)
  | Global of int * int  (** mutable-global def id, reference line *)

(* Effect sets are bitmasks over the six atoms; witnesses and seeds are
   one origin slot per atom. Fixed-width, no list scans in the fixpoint. *)
let idx = function
  | Clock -> 0
  | Random -> 1
  | Global_mut -> 2
  | Prints -> 3
  | Catchall -> 4
  | Io -> 5

let n_effects = 6
let bit e = 1 lsl idx e

type t = {
  cg : Callgraph.t;
  effects : int array;  (** per def, a bitmask over [all_effects] *)
  witness : origin option array array;  (** def x effect slot *)
  direct : origin option array array;  (** the seeds only *)
}

(* ---------------- propagation ---------------------------------------- *)

let analyse (cg : Callgraph.t) =
  let n = Array.length cg.Callgraph.defs in
  let direct = Array.init n (fun _ -> Array.make n_effects None) in
  let effects = Array.make n 0 in
  let witness = Array.init n (fun _ -> Array.make n_effects None) in
  (* Seeds. *)
  Array.iter
    (fun (d : Callgraph.def) ->
      let slots = direct.(d.Callgraph.id) in
      let add eff origin =
        let i = idx eff in
        if Option.is_none slots.(i) then slots.(i) <- Some origin
      in
      let kind = d.Callgraph.kind in
      List.iter
        (fun (s : Source_scan.site) ->
          match s.signal with
          | Random when kind.Source_scan.prng_exempt -> ()
          | Prints when kind.Source_scan.obs_exempt -> ()
          | Catchall -> add Catchall (Prim "try ... with _ ->")
          | eff -> add eff (Prim (String.concat "." s.path)))
        d.Callgraph.sites;
      List.iter
        (fun (callee, line) ->
          let c = cg.Callgraph.defs.(callee) in
          if c.Callgraph.mutable_global && not c.Callgraph.kind.Source_scan.obs_exempt then
            add Global_mut (Global (callee, line)))
        d.Callgraph.calls)
    cg.Callgraph.defs;
  (* SCCs arrive callee-first: every SCC a member calls into is final. *)
  List.iter
    (fun scc ->
      let in_scc = Hashtbl.create (List.length scc) in
      List.iter (fun v -> Hashtbl.replace in_scc v ()) scc;
      let union = ref 0 in
      List.iter
        (fun v ->
          Array.iteri
            (fun i o -> if Option.is_some o then union := !union lor (1 lsl i))
            direct.(v);
          List.iter
            (fun (w, _) -> if not (Hashtbl.mem in_scc w) then union := !union lor effects.(w))
            cg.Callgraph.defs.(v).Callgraph.calls)
        scc;
      let shared = !union in
      List.iter (fun v -> effects.(v) <- shared) scc;
      (* Witnesses: direct seeds first, then chase call edges; members of
         the SCC that only reach an effect through an in-SCC sibling pick
         its witness up in a later round — at most |scc| rounds. *)
      List.iter
        (fun v ->
          Array.iteri
            (fun i o -> if shared land (1 lsl i) <> 0 then witness.(v).(i) <- o)
            direct.(v))
        scc;
      let progress = ref true in
      while !progress do
        progress := false;
        List.iter
          (fun v ->
            Array.iteri
              (fun i slot ->
                if shared land (1 lsl i) <> 0 && Option.is_none slot then
                  match
                    List.find_map
                      (fun (w, line) ->
                        if effects.(w) land (1 lsl i) <> 0 && Option.is_some witness.(w).(i)
                        then Some (Call (w, line))
                        else None)
                      cg.Callgraph.defs.(v).Callgraph.calls
                  with
                  | Some o ->
                      witness.(v).(i) <- Some o;
                      progress := true
                  | None -> ())
              witness.(v))
          scc
      done)
    cg.Callgraph.sccs;
  { cg; effects; witness; direct }

let effects_of t id = List.filter (fun e -> t.effects.(id) land bit e <> 0) all_effects
let has t id eff = t.effects.(id) land bit eff <> 0
(* Seeded in the function's own body (the per-file rules already cover
   those sites); [LG-EFF-*] reports only the transitive reachers. *)
let is_direct t id eff = Option.is_some t.direct.(id).(idx eff)

(* ---------------- traces --------------------------------------------- *)

let trace t id eff =
  let i = idx eff in
  let visited = Hashtbl.create 8 in
  let rec go id =
    Hashtbl.replace visited id ();
    let d = t.cg.Callgraph.defs.(id) in
    d.Callgraph.display
    ::
    (match t.witness.(id).(i) with
    | Some (Prim p) -> [ p ]
    | Some (Global (g, _)) ->
        [ t.cg.Callgraph.defs.(g).Callgraph.display ^ " (module-level mutable)" ]
    | Some (Call (c, _)) -> if Hashtbl.mem visited c then [ "..." ] else go c
    | None -> [ "?" ])
  in
  go id

let trace_string t id eff = String.concat " -> " (trace t id eff)

(* ---------------- the LG-EFF-* rule family --------------------------- *)

let row t id =
  match effects_of t id with
  | [] -> "pure"
  | effs -> String.concat "," (List.map label effs)

(* Deterministic effect-summary rows for every exported definition of
   every library file, sorted by display name. *)
let summary_rows t =
  Array.to_list t.cg.Callgraph.defs
  |> List.filter (fun (d : Callgraph.def) -> d.Callgraph.kind.Source_scan.in_lib && d.Callgraph.exported)
  |> List.map (fun (d : Callgraph.def) -> (d.Callgraph.display, row t d.Callgraph.id))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* A "planner entry point" for LG-PLAN-STALE: any exported definition in
   a plan subsystem's [planner.ml] (the real [lib/plan/planner.ml], plus
   the [plan_bad]/[plan_good] fixture trees). Keyed on the path rather
   than on {!Source_scan.classify} so fixture scans, which force
   [lib_kind], exercise the rule too. *)
let planner_file file =
  String.equal (Filename.basename file) "planner.ml"
  && String.starts_with ~prefix:"plan" (Filename.basename (Filename.dirname file))

let violations t =
  let out = ref [] in
  Array.iter
    (fun (d : Callgraph.def) ->
      let kind = d.Callgraph.kind in
      if kind.Source_scan.in_lib && d.Callgraph.exported then begin
        let id = d.Callgraph.id in
        let add rule eff what fix =
          out :=
            {
              Source_scan.rule;
              file = d.Callgraph.file;
              line = d.Callgraph.line;
              col = d.Callgraph.col;
              message =
                Printf.sprintf "%s transitively %s: %s; %s" d.Callgraph.display what
                  (trace_string t id eff) fix;
            }
            :: !out
        in
        if has t id Clock && (not (is_direct t id Clock)) && not kind.Source_scan.obs_exempt
        then
          add Rule.Eff_clock Clock "reaches the wall clock"
            "thread simulation time or the injected Obs.Clock";
        if has t id Random && (not (is_direct t id Random)) && not kind.Source_scan.prng_exempt
        then add Rule.Eff_random Random "reaches Random" "thread a seeded Prng instead";
        if
          has t id Global_mut
          && (not d.Callgraph.mutable_global)
          && not kind.Source_scan.obs_exempt
        then
          add Rule.Eff_globalmut Global_mut "reaches module-level mutable state"
            "allocate the state per world and thread it (share-nothing)";
        (* LG-PLAN-STALE certifies planner entry points effect-pure:
           unlike the LG-EFF-* family it fires on direct uses too, and on
           clock/Random regardless of the file's exemptions — a plan
           computed from anything but its arguments is stale on arrival. *)
        if planner_file d.Callgraph.file then
          List.iter
            (fun (eff, what) ->
              if has t id eff && not (eff == Global_mut && d.Callgraph.mutable_global) then
                add Rule.Plan_stale eff what
                  "planner entry points must be pure functions of the world")
            [
              (Clock, "is a planner entry point reaching the wall clock");
              (Random, "is a planner entry point reaching Random");
              (Global_mut, "is a planner entry point reaching module-level mutable state");
            ]
      end)
    t.cg.Callgraph.defs;
  List.rev !out
