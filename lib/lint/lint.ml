(* Driver for lifeguard-lint: directory walking, the one-parse pipeline
   feeding both the per-file syntactic pass and the interprocedural
   Callgraph/Effects pass, report rendering (text / github), baseline
   checking, and the CLI entry point shared by
   bin/lifeguard_lint and the test suite. *)

module Rule = Rule
module Source_scan = Source_scan
module Baseline = Baseline
module Callgraph = Callgraph
module Effects = Effects
module Pragma = Pragma
module Report = Report

let default_dirs = [ "lib"; "bin"; "examples"; "perfbench" ]

(* perfbench/ is the benchmark: scanned for the library references it
   makes (a caller for LG-DEAD-EXPORT), never checked itself. *)
let references_only f = List.mem "perfbench" (String.split_on_char '/' f)

(* Skip hidden and build dirs so the pass can run unchanged from a dune
   sandbox (_build/default), where .objs/ etc. sit next to sources. *)
(* lint: allow LG-DEAD-EXPORT (seam: test_lint.ml's mli fixtures) *)
let rec collect_ml_files acc path =
  if Sys.file_exists path && Sys.is_directory path then
    Array.to_list (Sys.readdir path)
    |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if String.length name = 0 || name.[0] = '.' || name.[0] = '_' then acc
           else collect_ml_files acc (Filename.concat path name))
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

type report = {
  violations : Source_scan.violation list;
  errors : (string * string) list;  (** file, parse error *)
}

(* Parse every file once; the syntactic pass and the callgraph share the
   ASTs. Library files (or everything, under a forced kind) feed the
   interprocedural pass. *)
let parse_all ?kind ~dirs () =
  let files = List.fold_left collect_ml_files [] dirs |> List.sort String.compare in
  let parsed = ref [] in
  let errors = ref [] in
  List.iter
    (fun f ->
      let k = match kind with Some k -> k | None -> Source_scan.classify f in
      match Source_scan.parse_file f with
      | Ok ast -> parsed := (f, ast, k) :: !parsed
      | Error e -> errors := (f, e) :: !errors)
    files;
  (files, List.rev !parsed, List.rev !errors)

(* lint: allow LG-DEAD-EXPORT (seam: test_lint.ml's real-tree effect summaries) *)
let analyse ?kind ~dirs () =
  let _, parsed, errors = parse_all ?kind ~dirs () in
  (Effects.analyse (Callgraph.build ~files:parsed), errors)

(* LG-DEAD-EXPORT: an exported library definition that no definition of
   another scanned file references. Same-file references do not count
   (they make a case for dropping it from the .mli, not for keeping it
   exported), and test/ is never scanned, so a name only tests call is
   dead too. *)
let dead_exports (cg : Callgraph.t) =
  let defs = cg.Callgraph.defs in
  let used = Array.make (Array.length defs) false in
  Array.iter
    (fun (d : Callgraph.def) ->
      List.iter
        (fun (callee, _) ->
          if not (String.equal defs.(callee).Callgraph.file d.Callgraph.file) then
            used.(callee) <- true)
        d.Callgraph.calls)
    defs;
  Array.fold_right
    (fun (d : Callgraph.def) acc ->
      if d.Callgraph.kind.Source_scan.in_lib && d.Callgraph.exported && not used.(d.Callgraph.id)
      then
        {
          Source_scan.rule = Rule.Dead_export;
          file = d.Callgraph.file;
          line = d.Callgraph.line;
          col = d.Callgraph.col;
          message =
            Printf.sprintf "%s is exported but no other file references it" d.Callgraph.display;
        }
        :: acc
      else acc)
    defs []

(* lint: allow LG-DEAD-EXPORT (seam: test_lint.ml's fixture directories) *)
let scan ?kind ~dirs () =
  let files, parsed, errors = parse_all ?kind ~dirs () in
  let violations = ref [] in
  List.iter
    (fun (f, ast, k) ->
      if not (references_only f) then
        violations := List.rev_append (Source_scan.scan_ast ~kind:k ~file:f ast) !violations)
    parsed;
  let force_lib = match kind with Some k -> k.Source_scan.in_lib | None -> false in
  let mli = Source_scan.mli_violations ~force_lib files in
  let cg = Callgraph.build ~files:parsed in
  let eff = Effects.violations (Effects.analyse cg) in
  let all = List.concat [ mli; eff; dead_exports cg; !violations ] in
  {
    violations = Pragma.filter (List.sort Source_scan.compare_violation all);
    errors;
  }

let pp_violation oc (v : Source_scan.violation) =
  Printf.fprintf oc "%s\n" (Report.text_line v)

(* Diff a report against a baseline file; print fresh violations and
   stale entries ([Report.Github] adds [::error] workflow commands for
   fresh violations); return the exit code (0 clean, 1 fresh violations
   or a stale entry, 2 unreadable baseline). *)
let run_check ?(format = Report.Text) ~oc ~baseline_path r =
  match Baseline.load baseline_path with
  | Error e ->
      Printf.fprintf oc "lifeguard-lint: %s\n" e;
      2
  | Ok base ->
      let verdict = Baseline.check base r.violations in
      List.iter
        (fun (k, allowed, found, vs) ->
          Printf.fprintf oc
            "lifeguard-lint: new violation(s) of %s: baseline allows %d, found %d\n" k allowed
            found;
          List.iter
            (fun v ->
              pp_violation oc v;
              (* Under --format github a fresh violation also becomes an
                 ::error workflow command, so CI annotates the diff. *)
              if format = Report.Github then
                Printf.fprintf oc "%s\n" (Report.github_line ~level:"error" v))
            vs)
        verdict.Baseline.fresh;
      List.iter
        (fun (k, allowed, found) ->
          Printf.fprintf oc
            "lifeguard-lint: stale baseline entry %s: baseline allows %d, found %d; run \
             --update-baseline\n"
            k allowed found)
        verdict.Baseline.stale;
      if verdict.Baseline.fresh <> [] || verdict.Baseline.stale <> [] then 1 else 0

(* The --effects table: one deterministic row per exported library
   definition. *)
let effects_table ?kind ~dirs () =
  let eff, errors = analyse ?kind ~dirs () in
  let rows = Effects.summary_rows eff in
  let width =
    List.fold_left (fun w (name, _) -> max w (String.length name)) 24 rows
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, row) -> Buffer.add_string b (Printf.sprintf "%-*s  %s\n" width name row))
    rows;
  Buffer.add_string b
    (Printf.sprintf "%d exported definitions (effects: clock random globalmut prints \
                     catchall io)\n"
       (List.length rows));
  (Buffer.contents b, errors)

let usage =
  "lifeguard_lint [--check | --update-baseline | --effects] [--format FMT]\n\
  \               [--baseline FILE] [--root DIR] [--treat-as-lib] [DIR ...]\n\
   Static analysis for domain-safety, determinism and hot-path hygiene,\n\
   including the interprocedural LG-EFF-* effect rules and LG-DEAD-EXPORT.\n\
   FMT is one of: text github. Default directories: lib bin examples perfbench."

let main ?(out = Format.std_formatter) argv =
  let check = ref false in
  let update = ref false in
  let effects = ref false in
  let format = ref Report.Text in
  let bad_format = ref None in
  let baseline_path = ref "lint.baseline" in
  let root = ref "" in
  let as_lib = ref false in
  let dirs = ref [] in
  let spec =
    [
      ( "--check",
        Arg.Set check,
        " fail (exit 1) on violations not covered by the baseline, or on stale baseline entries"
      );
      ("--update-baseline", Arg.Set update, " rewrite the baseline from the current tree");
      ( "--effects",
        Arg.Set effects,
        " print the interprocedural effect summary of every exported library definition" );
      ( "--format",
        Arg.String
          (fun s ->
            match Report.format_of_string s with
            | Some f -> format := f
            | None -> bad_format := Some s),
        "FMT report format: text github (default text)" );
      ("--baseline", Arg.Set_string baseline_path, "FILE baseline file (default lint.baseline)");
      ("--root", Arg.Set_string root, "DIR chdir here first; paths are reported relative to it");
      ("--treat-as-lib", Arg.Set as_lib, " apply library-strict rules to every scanned file");
      ("--rules", Arg.Unit (fun () -> raise Exit), " list rule IDs and exit");
    ]
  in
  match
    Arg.parse_argv ~current:(ref 0) argv (Arg.align spec)
      (fun d -> dirs := d :: !dirs)
      usage
  with
  | exception Arg.Bad msg ->
      prerr_string msg;
      2
  | exception Arg.Help msg ->
      Format.pp_print_string out msg;
      Format.pp_print_flush out ();
      0
  | exception Exit ->
      List.iter (fun r -> Format.fprintf out "%-16s %s\n" (Rule.id r) (Rule.describe r)) Rule.all;
      Format.pp_print_flush out ();
      0
  | () -> (
      match !bad_format with
      | Some s ->
          Printf.eprintf "lifeguard-lint: unknown --format %s (text github)\n" s;
          2
      | None ->
          let dirs = if !dirs = [] then default_dirs else List.rev !dirs in
          let kind = if !as_lib then Some Source_scan.lib_kind else None in
          let run () =
            if !effects then begin
              let table, errors = effects_table ?kind ~dirs () in
              List.iter
                (fun (f, e) -> Printf.eprintf "lifeguard-lint: %s: parse error: %s\n" f e)
                errors;
              if errors <> [] then 2
              else begin
                Format.pp_print_string out table;
                Format.pp_print_flush out ();
                0
              end
            end
            else begin
              let r = scan ?kind ~dirs () in
              List.iter
                (fun (f, e) -> Printf.eprintf "lifeguard-lint: %s: parse error: %s\n" f e)
                r.errors;
              if r.errors <> [] then 2
              else if !update then begin
                Baseline.save !baseline_path (Baseline.of_violations r.violations);
                Format.fprintf out "lifeguard-lint: wrote %s (%d grandfathered violations)@."
                  !baseline_path (List.length r.violations);
                0
              end
              else if !check then
                run_check ~format:!format ~oc:stdout ~baseline_path:!baseline_path r
              else begin
                (* lint: allow LG-OBS-PRINTF (reports go to stdout by CLI contract) *)
                print_string (Report.render !format ~violations:r.violations);
                0
              end
            end
          in
          if String.length !root = 0 then run ()
          else begin
            let cwd = Sys.getcwd () in
            Fun.protect
              ~finally:(fun () -> Sys.chdir cwd)
              (fun () ->
                Sys.chdir !root;
                run ())
          end)
