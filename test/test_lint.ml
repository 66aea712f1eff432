(* lifeguard-lint: fixture corpus (one must-flag and one must-pass file
   per rule family), baseline semantics, and the --check exit codes. *)

module Rule = Lint.Rule
module Scan = Lint.Source_scan
module Baseline = Lint.Baseline

let fixture name = Filename.concat "lint_fixtures" name

let scan_fixture name =
  match Scan.scan_file ~kind:Scan.lib_kind (fixture name) with
  | Ok vs -> vs
  | Error e -> Alcotest.failf "parse error in %s: %s" name e

let count rule vs =
  List.length (List.filter (fun (v : Scan.violation) -> String.equal (Rule.id v.rule) (Rule.id rule)) vs)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let check_rule name vs rule expected =
  Alcotest.(check int) (name ^ ": " ^ Rule.id rule) expected (count rule vs)

let test_det_fixtures () =
  let bad = scan_fixture "det_bad.ml" in
  check_rule "det_bad" bad Rule.Det_random 1;
  check_rule "det_bad" bad Rule.Det_clock 2;
  check_rule "det_bad" bad Rule.Det_polyeq 3;
  check_rule "det_bad" bad Rule.Det_hashkey 1;
  (* a [Stdlib.] prefix names the same Random and clock *)
  let stdlib = scan_fixture "det_stdlib_bad.ml" in
  check_rule "det_stdlib_bad" stdlib Rule.Det_random 1;
  check_rule "det_stdlib_bad" stdlib Rule.Det_clock 1;
  check_rule "det_stdlib_bad" stdlib Rule.Det_polyeq 1;
  Alcotest.(check int) "det_good is clean" 0 (List.length (scan_fixture "det_good.ml"));
  (* tuple and record keys built at a Hashtbl call site *)
  check_rule "det_hashkey_bad" (scan_fixture "det_hashkey_bad.ml") Rule.Det_hashkey 4;
  Alcotest.(check int) "det_hashkey_good is clean" 0
    (List.length (scan_fixture "det_hashkey_good.ml"))

let test_dom_fixtures () =
  let bad = scan_fixture "dom_bad.ml" in
  check_rule "dom_bad" bad Rule.Dom_mut 5;
  Alcotest.(check int) "dom_good is clean" 0 (List.length (scan_fixture "dom_good.ml"));
  check_rule "dom_atomic_bad" (scan_fixture "dom_atomic_bad.ml") Rule.Dom_mut 1;
  (* outside lib/, module-level state is the executable's business *)
  (match Scan.scan_file ~kind:{ Scan.lib_kind with Scan.in_lib = false } (fixture "dom_bad.ml") with
  | Ok vs -> check_rule "dom_bad outside lib" vs Rule.Dom_mut 0
  | Error e -> Alcotest.fail e);
  (* lib/obs is the sanctioned home for cross-domain shards: exempt. *)
  match Scan.scan_file ~kind:(Scan.classify "lib/obs/metrics.ml") (fixture "dom_bad.ml") with
  | Ok vs -> check_rule "dom_bad under lib/obs" vs Rule.Dom_mut 0
  | Error e -> Alcotest.fail e

let test_obs_fixtures () =
  let bad = scan_fixture "obs_bad.ml" in
  check_rule "obs_bad" bad Rule.Obs_printf 4;
  Alcotest.(check int) "obs_good is clean" 0 (List.length (scan_fixture "obs_good.ml"));
  (* A printer bound in a nested module does not shadow the bare name
     outside it: the rule and the prints seed agree. *)
  check_rule "obs_scope_bad" (scan_fixture "obs_scope_bad.ml") Rule.Obs_printf 1;
  (let eff, _ = Lint.analyse ~kind:Scan.lib_kind ~dirs:[ fixture "obs_scope_bad.ml" ] () in
   match
     List.find_opt
       (fun (name, _) -> String.ends_with ~suffix:"Obs_scope_bad.shout" name)
       (Lint.Effects.summary_rows eff)
   with
   | Some (_, row) -> Alcotest.(check bool) ("shout prints: " ^ row) true (contains ~needle:"prints" row)
   | None -> Alcotest.fail "no effect summary row for shout");
  (* outside lib/, printing is the executable's business *)
  match Scan.scan_file ~kind:(Scan.classify "bin/lifeguard_cli.ml") (fixture "obs_bad.ml") with
  | Ok vs -> check_rule "obs_bad outside lib" vs Rule.Obs_printf 0
  | Error e -> Alcotest.fail e

let test_perf_fixtures () =
  let bad = scan_fixture "perf_bad.ml" in
  check_rule "perf_bad" bad Rule.Perf_append 2;
  check_rule "perf_bad" bad Rule.Perf_scan 2;
  Alcotest.(check int) "perf_good is clean" 0 (List.length (scan_fixture "perf_good.ml"));
  (* a local helper wrapping List.assoc, applied inside an iteration
     closure *)
  check_rule "perf_scan_helper_bad" (scan_fixture "perf_scan_helper_bad.ml") Rule.Perf_scan 1;
  check_rule "perf_boxed_bad" (scan_fixture "perf_boxed_bad.ml") Rule.Perf_boxed 6;
  Alcotest.(check int) "perf_boxed_good is clean" 0
    (List.length (scan_fixture "perf_boxed_good.ml"));
  (* outside lib/, allocation is the executable's business *)
  (match
     Scan.scan_file ~kind:{ Scan.lib_kind with Scan.in_lib = false } (fixture "perf_boxed_bad.ml")
   with
  | Ok vs -> check_rule "perf_boxed_bad outside lib" vs Rule.Perf_boxed 0
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "perf_scan_helper_good is clean" 0
    (List.length (scan_fixture "perf_scan_helper_good.ml"))

let test_structeq_fixtures () =
  let bad = scan_fixture "structeq_bad.ml" in
  check_rule "structeq_bad" bad Rule.Perf_structeq 4;
  Alcotest.(check int) "structeq_good is clean" 0
    (count Rule.Perf_structeq (scan_fixture "structeq_good.ml"));
  (* inside lib/bgp, structural comparison of its own representations is legal *)
  match Scan.scan_file ~kind:(Scan.classify "lib/bgp/as_path.ml") (fixture "structeq_bad.ml") with
  | Ok vs -> check_rule "structeq_bad under lib/bgp" vs Rule.Perf_structeq 0
  | Error e -> Alcotest.fail e

let test_rob_fixtures () =
  let bad = scan_fixture "rob_bad.ml" in
  check_rule "rob_bad" bad Rule.Rob_exn 4;
  Alcotest.(check int) "rob_good is clean" 0 (List.length (scan_fixture "rob_good.ml"));
  (* outside lib/, defensive catch-alls in a binary are its business *)
  match Scan.scan_file ~kind:(Scan.classify "bin/lifeguard_cli.ml") (fixture "rob_bad.ml") with
  | Ok vs -> check_rule "rob_bad outside lib" vs Rule.Rob_exn 0
  | Error e -> Alcotest.fail e

let test_rob_snapshot_fixtures () =
  let bad = scan_fixture "rob_snapshot_bad.ml" in
  check_rule "rob_snapshot_bad" bad Rule.Rob_snapshot 3;
  Alcotest.(check int) "rob_snapshot_good is clean" 0
    (List.length (scan_fixture "rob_snapshot_good.ml"));
  (* no toplevel [capture] binding, no snapshot contract *)
  Alcotest.(check int) "rob_snapshot_none is clean" 0
    (List.length (scan_fixture "rob_snapshot_none.ml"));
  (* outside lib/, snapshotting is not a contract the linter owns *)
  match Scan.scan_file ~kind:(Scan.classify "bin/lifeguard_cli.ml") (fixture "rob_snapshot_bad.ml") with
  | Ok vs -> check_rule "rob_snapshot_bad outside lib" vs Rule.Rob_snapshot 0
  | Error e -> Alcotest.fail e

let test_rob_marshal_fixtures () =
  let bad = scan_fixture "rob_marshal_bad.ml" in
  check_rule "rob_marshal_bad" bad Rule.Rob_marshal 4;
  let scan_as path =
    match Scan.scan_file ~kind:(Scan.classify path) (fixture "rob_marshal_bad.ml") with
    | Ok vs -> vs
    | Error e -> Alcotest.fail e
  in
  (* the template module is the one place Marshal is legal *)
  check_rule "rob_marshal_bad as the template" (scan_as "lib/workloads/template.ml")
    Rule.Rob_marshal 0;
  check_rule "rob_marshal_bad as another workloads module" (scan_as "lib/workloads/scenarios.ml")
    Rule.Rob_marshal 4;
  (* unlike most LG-ROB rules it holds outside lib/ too *)
  check_rule "rob_marshal_bad outside lib" (scan_as "bin/lifeguard_cli.ml") Rule.Rob_marshal 4

let test_mli_fixtures () =
  let files = Lint.collect_ml_files [] (fixture "mli") in
  let vs = Scan.mli_violations ~force_lib:true files in
  Alcotest.(check int) "one orphan" 1 (List.length vs);
  match vs with
  | [ v ] ->
      Alcotest.(check bool) "orphan.ml flagged" true
        (Filename.basename v.Scan.file = "orphan.ml")
  | _ -> Alcotest.fail "expected exactly orphan.ml"

let test_baseline_semantics () =
  let vs = scan_fixture "perf_bad.ml" in
  let base = Baseline.of_violations vs in
  let clean = Baseline.check base vs in
  Alcotest.(check int) "own violations grandfathered" 0 (List.length clean.Baseline.fresh);
  let fresh = Baseline.check (Baseline.of_violations []) vs in
  Alcotest.(check bool) "empty baseline flags everything" true
    (List.length fresh.Baseline.fresh > 0);
  let stale = Baseline.check base [] in
  Alcotest.(check bool) "fixed violations reported stale, not fresh" true
    (List.length stale.Baseline.stale > 0 && List.length stale.Baseline.fresh = 0)

let test_check_exit_codes () =
  let tmp = Filename.temp_file "lint_baseline" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let run args = Lint.main (Array.of_list ("lifeguard_lint" :: args)) in
      Alcotest.(check int) "--check is 1 on fixtures not in the baseline" 1
        (run [ "--check"; "--treat-as-lib"; "--baseline"; tmp; "lint_fixtures" ]);
      Alcotest.(check int) "--update-baseline is 0" 0
        (run [ "--update-baseline"; "--treat-as-lib"; "--baseline"; tmp; "lint_fixtures" ]);
      Alcotest.(check int) "--check is 0 once grandfathered" 0
        (run [ "--check"; "--treat-as-lib"; "--baseline"; tmp; "lint_fixtures" ]))

(* A baseline entry above what the tree has must be lowered in the same
   change that fixed the violation, so --check refuses it. *)
let test_check_stale_baseline () =
  let tmp = Filename.temp_file "lint_baseline" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let run args = Lint.main (Array.of_list ("lifeguard_lint" :: args)) in
      ignore (run [ "--update-baseline"; "--treat-as-lib"; "--baseline"; tmp; "lint_fixtures" ]);
      let oc = open_out_gen [ Open_append ] 0o644 tmp in
      output_string oc "LG-MLI-MISSING lint_fixtures/fixed.ml 1\n";
      close_out oc;
      Alcotest.(check int) "--check is 1 on a stale baseline entry" 1
        (run [ "--check"; "--treat-as-lib"; "--baseline"; tmp; "lint_fixtures" ]))

(* ---------------- interprocedural effect analysis ------------------- *)

let scan_dir name = Lint.scan ~kind:Scan.lib_kind ~dirs:[ fixture name ] ()

let messages_of rule (r : Lint.report) =
  List.filter_map
    (fun (v : Scan.violation) ->
      if String.equal (Rule.id v.rule) (Rule.id rule) then Some v.Scan.message else None)
    r.Lint.violations

let test_eff_fixtures () =
  let bad = scan_dir "eff_bad" in
  Alcotest.(check int) "eff_bad parses" 0 (List.length bad.Lint.errors);
  check_rule "eff_bad" bad.Lint.violations Rule.Eff_clock 3;
  check_rule "eff_bad" bad.Lint.violations Rule.Eff_random 2;
  check_rule "eff_bad" bad.Lint.violations Rule.Eff_globalmut 2;
  (* The direct seeds stay with the per-file rules, not LG-EFF-*. *)
  check_rule "eff_bad" bad.Lint.violations Rule.Det_clock 1;
  check_rule "eff_bad" bad.Lint.violations Rule.Det_random 1;
  check_rule "eff_bad" bad.Lint.violations Rule.Dom_mut 1;
  (* Call traces: the wrapper-laundered clock reports the full chain. *)
  Alcotest.(check bool) "2-hop clock trace" true
    (List.exists
       (contains
          ~needle:"Eff_bad.Clock_user.run -> Eff_bad.Clock_wrap.now -> Unix.gettimeofday")
       (messages_of Rule.Eff_clock bad));
  Alcotest.(check bool) "3-hop random trace" true
    (List.exists
       (contains
          ~needle:
            "Eff_bad.Rand_top.choose -> Eff_bad.Rand_mid.pick -> Eff_bad.Rand_core.draw -> Random.int")
       (messages_of Rule.Eff_random bad));
  Alcotest.(check bool) "cross-module mutation trace" true
    (List.exists
       (contains
          ~needle:
            "Eff_bad.Store_client.record -> Eff_bad.Store.put -> Eff_bad.Store.table (module-level mutable)")
       (messages_of Rule.Eff_globalmut bad));
  (* The apparent cross-module cycle converges and both members report. *)
  Alcotest.(check bool) "SCC member reports through the cycle" true
    (List.exists (contains ~needle:"Eff_bad.Cyc_b.pong") (messages_of Rule.Eff_clock bad));
  (* Clean twins: same shapes with injected clock/state stay silent. *)
  let good = scan_dir "eff_good" in
  Alcotest.(check int) "eff_good parses" 0 (List.length good.Lint.errors);
  List.iter
    (fun rule -> check_rule "eff_good" good.Lint.violations rule 0)
    [ Rule.Eff_clock; Rule.Eff_random; Rule.Eff_globalmut; Rule.Det_clock; Rule.Det_random;
      Rule.Dom_mut ]

(* LG-PLAN-STALE: planner entry points (exported defs of a plan
   subsystem's planner.ml) must be effect-pure. Unlike the LG-EFF-*
   family, direct uses count too. *)
let test_plan_fixtures () =
  let bad = scan_dir "plan_bad" in
  Alcotest.(check int) "plan_bad parses" 0 (List.length bad.Lint.errors);
  (* One per tainted entry point: direct clock, laundered Random,
     module-level memo. *)
  check_rule "plan_bad" bad.Lint.violations Rule.Plan_stale 3;
  Alcotest.(check bool) "direct clock read still fires PLAN-STALE" true
    (List.exists
       (contains ~needle:"Plan_bad.Planner.build_stamped -> Unix.gettimeofday")
       (messages_of Rule.Plan_stale bad));
  Alcotest.(check bool) "laundered Random carries the chain" true
    (List.exists
       (contains ~needle:"Plan_bad.Planner.shuffle -> Plan_bad.Jitter.pick -> Random.int")
       (messages_of Rule.Plan_stale bad));
  Alcotest.(check bool) "memo taints the cached entry point" true
    (List.exists
       (contains ~needle:"Plan_bad.Planner.memo (module-level mutable)")
       (messages_of Rule.Plan_stale bad));
  (* The wrapper itself is not a planner entry point. *)
  Alcotest.(check bool) "jitter.ml itself not held to the planner bar" true
    (not
       (List.exists (contains ~needle:"Plan_bad.Jitter.pick is")
          (messages_of Rule.Plan_stale bad)));
  let good = scan_dir "plan_good" in
  Alcotest.(check int) "plan_good parses" 0 (List.length good.Lint.errors);
  check_rule "plan_good" good.Lint.violations Rule.Plan_stale 0

(* LG-DEAD-EXPORT: each tree is a lib/ plus a bin-like root, scanned with
   per-path classification, so bin/ only ever counts as a caller. dead_bad
   has an export nobody calls and one only its own file calls; in
   dead_good every export is reached from another file — inside
   [let () =], through [open], through a module alias, from a sibling
   module — or carries the pragma. *)
let test_dead_export_fixtures () =
  Alcotest.(check bool) "LG-DEAD-EXPORT is a rule" true
    (Option.is_some (Rule.of_id "LG-DEAD-EXPORT"));
  let bad = Lint.scan ~dirs:[ fixture "dead_bad" ] () in
  Alcotest.(check int) "dead_bad parses" 0 (List.length bad.Lint.errors);
  check_rule "dead_bad" bad.Lint.violations Rule.Dead_export 2;
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true
        (List.exists (contains ~needle) (messages_of Rule.Dead_export bad)))
    [ "Parts.Unused.nobody"; "Parts.Selfish.helper" ];
  let good = Lint.scan ~dirs:[ fixture "dead_good" ] () in
  Alcotest.(check int) "dead_good parses" 0 (List.length good.Lint.errors);
  check_rule "dead_good" good.Lint.violations Rule.Dead_export 0

(* The real planner is certified pure by the same pass the fixtures
   exercise: the shipped baseline has no LG-PLAN-STALE entries, so
   test_real_tree failing would catch a regression — this test makes the
   certification explicit. *)
let test_real_planner_pure () =
  if Sys.file_exists "../lib/plan" then begin
    let r = Lint.scan ~dirs:[ "../lib/plan" ] () in
    Alcotest.(check int) "lib/plan parses" 0 (List.length r.Lint.errors);
    check_rule "lib/plan" r.Lint.violations Rule.Plan_stale 0
  end
  else print_endline "real-tree sources not materialized; skipped"

let test_pragma () =
  (* Unit semantics: same line and line-above suppress; two lines above
     does not; other rules unaffected. *)
  let p = Lint.Pragma.of_lines [ "(* lint: allow LG-EFF-CLOCK, LG-DET-CLOCK *)"; "let x = 1" ] in
  Alcotest.(check bool) "same line" true (Lint.Pragma.suppresses p ~rule:"LG-EFF-CLOCK" ~line:1);
  Alcotest.(check bool) "line below" true (Lint.Pragma.suppresses p ~rule:"LG-DET-CLOCK" ~line:2);
  Alcotest.(check bool) "two below" false (Lint.Pragma.suppresses p ~rule:"LG-DET-CLOCK" ~line:3);
  Alcotest.(check bool) "other rule" false (Lint.Pragma.suppresses p ~rule:"LG-DET-RANDOM" ~line:2);
  (* Through the scan: the fixture has three clock reads, two annotated. *)
  let r = scan_dir "pragma" in
  check_rule "pragma" r.Lint.violations Rule.Det_clock 1

let test_report_format_github () =
  let r = scan_dir "eff_bad" in
  (* Workflow commands: one ::warning per violation, file= anchored. *)
  let gh = Lint.Report.render Lint.Report.Github ~violations:r.Lint.violations in
  Alcotest.(check bool) "github warnings" true (contains ~needle:"::warning file=" gh)

let test_effects_cli () =
  let buf = Buffer.create 4096 in
  let out = Format.formatter_of_buffer buf in
  let code =
    Lint.main ~out [| "lifeguard_lint"; "--effects"; "--treat-as-lib"; fixture "eff_bad" |]
  in
  Format.pp_print_flush out ();
  Alcotest.(check int) "--effects exits 0" 0 code;
  let table = Buffer.contents buf in
  Alcotest.(check bool) "summary row for the laundered clock" true
    (contains ~needle:"Eff_bad.Clock_user.run" table);
  Alcotest.(check bool) "clock effect in the row" true (contains ~needle:"clock" table)

(* Effect summaries of the real tree: the hot control-loop entry points
   are effect-free (clock and randomness arrive injected), and the table
   is deterministic run to run. A change here means someone taught the
   simulation core a real side effect — that breaks the share-nothing
   worker model, so it should be a conscious, reviewed decision. *)
let test_real_tree_effects () =
  if Sys.file_exists "../lib" then begin
    let eff, errors = Lint.analyse ~dirs:[ "../lib" ] () in
    Alcotest.(check int) "real tree parses" 0 (List.length errors);
    let rows = Lint.Effects.summary_rows eff in
    Alcotest.(check bool) "covers the exported surface" true (List.length rows > 400);
    let row name =
      match List.assoc_opt name rows with
      | Some r -> r
      | None -> Alcotest.failf "no effect summary row for %s" name
    in
    Alcotest.(check string) "Bgp.Speaker.create stays pure" "pure" (row "Bgp.Speaker.create");
    Alcotest.(check string) "Fleet.Service.run stays pure" "pure" (row "Fleet.Service.run");
    let eff2, _ = Lint.analyse ~dirs:[ "../lib" ] () in
    Alcotest.(check bool) "summary is deterministic" true
      (List.equal
         (fun (a, b) (c, d) -> String.equal a c && String.equal b d)
         rows
         (Lint.Effects.summary_rows eff2))
  end
  else print_endline "real-tree sources not materialized; skipped"

(* The gate the build runs: the real tree is clean against the shipped
   baseline. Exercised from the test binary's sandbox (_build/default),
   where dune has copied the sources and lint.baseline next to test/. *)
let test_real_tree () =
  if Sys.file_exists "../lint.baseline" && Sys.file_exists "../lib" then
    Alcotest.(check int) "--check is 0 on the real tree with the shipped baseline" 0
      (Lint.main [| "lifeguard_lint"; "--check"; "--root"; ".." |])
  else print_endline "real-tree fixture not materialized; covered by `dune build @lint`"

let suite =
  [
    Alcotest.test_case "determinism fixtures" `Quick test_det_fixtures;
    Alcotest.test_case "domain-safety fixtures" `Quick test_dom_fixtures;
    Alcotest.test_case "perf fixtures" `Quick test_perf_fixtures;
    Alcotest.test_case "perf/structeq fixtures" `Quick test_structeq_fixtures;
    Alcotest.test_case "obs/printf fixtures" `Quick test_obs_fixtures;
    Alcotest.test_case "robustness/exception fixtures" `Quick test_rob_fixtures;
    Alcotest.test_case "robustness/snapshot fixtures (LG-ROB-SNAPSHOT)" `Quick
      test_rob_snapshot_fixtures;
    Alcotest.test_case "robustness/marshal fixtures (LG-ROB-MARSHAL)" `Quick
      test_rob_marshal_fixtures;
    Alcotest.test_case "mli fixtures" `Quick test_mli_fixtures;
    Alcotest.test_case "baseline semantics" `Quick test_baseline_semantics;
    Alcotest.test_case "check exit codes" `Quick test_check_exit_codes;
    Alcotest.test_case "check refuses a stale baseline" `Quick test_check_stale_baseline;
    Alcotest.test_case "effect fixtures (LG-EFF-*)" `Quick test_eff_fixtures;
    Alcotest.test_case "planner purity fixtures (LG-PLAN-STALE)" `Quick test_plan_fixtures;
    Alcotest.test_case "dead-export fixtures (LG-DEAD-EXPORT)" `Quick test_dead_export_fixtures;
    Alcotest.test_case "real planner certified pure" `Quick test_real_planner_pure;
    Alcotest.test_case "pragma suppressions" `Quick test_pragma;
    Alcotest.test_case "github report format" `Quick test_report_format_github;
    Alcotest.test_case "--effects CLI table" `Quick test_effects_cli;
    Alcotest.test_case "real tree effect summaries" `Quick test_real_tree_effects;
    Alcotest.test_case "real tree vs shipped baseline" `Quick test_real_tree;
  ]
