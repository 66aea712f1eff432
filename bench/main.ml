(* The paper-table harness: regenerates every table and figure of the
   paper's evaluation, printing paper-vs-measured rows and each
   experiment's wall-clock. perfbench (perfbench/run.py) is the
   performance benchmark; this harness only times whole experiments.

   Usage: main.exe [--quick] [--seed N] [--only NAME[,NAME...]] [--jobs N]
                   [--trace FILE] [--metrics]
   Experiment names: fig1 fig5 alt-paths efficacy fig6 loss selective
   accuracy scalability load hubble anomalies sentinel ablation damping
   fleet faults plan recover case-study lint table1. A malformed number,
   an unknown flag or an unknown experiment name is one line on stderr
   and exit 2, before anything runs.

   --jobs N spreads experiment trials over N domains (default: the
   machine's recommended domain count; 1 forces the sequential path).
   Output tables are identical for every jobs value. --trace streams
   structured JSONL events to FILE (and implies --metrics); --metrics
   records Obs counters and prints a summary table.

   The run exits 1, after every table is written, when a crash-resumed
   run diverges from its reference. *)

let seed = ref 42
let quick = ref false
let only : string list ref = ref []
let jobs = ref (Par.Pool.default_jobs ())
let trace_path : string option ref = ref None
let show_metrics = ref false

module Names = Set.Make (String)

let experiment_names =
  [
    "fig1"; "fig5"; "alt-paths"; "efficacy"; "fig6"; "loss"; "selective"; "accuracy";
    "scalability"; "load"; "hubble"; "anomalies"; "sentinel"; "ablation"; "damping"; "fleet";
    "faults"; "plan"; "recover"; "case-study"; "lint"; "table1";
  ]

let parse_args () =
  let refuse fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt in
  let known = Names.of_list experiment_names in
  let int_arg flag n =
    match int_of_string_opt n with
    | Some v -> v
    | None -> refuse "%s expects an integer, got %S" flag n
  in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        go rest
    | "--seed" :: n :: rest ->
        seed := int_arg "--seed" n;
        go rest
    | "--jobs" :: n :: rest ->
        jobs := max 1 (int_arg "--jobs" n);
        go rest
    | "--trace" :: path :: rest ->
        trace_path := Some path;
        go rest
    | "--metrics" :: rest ->
        show_metrics := true;
        go rest
    | "--only" :: names :: rest ->
        only := String.split_on_char ',' names;
        (match List.find_opt (fun name -> not (Names.mem name known)) !only with
        | Some name ->
            refuse "unknown experiment %S (known: %s)" name (String.concat " " experiment_names)
        | None -> ());
        go rest
    | arg :: _ -> refuse "unknown argument %s" arg
  in
  go (List.tl (Array.to_list Sys.argv))

(* What diverged from its reference (crash-resume), in run order; a
   non-empty list makes the run exit 1 at the end. *)
let diverged : string list ref = ref []

let wanted name =
  match !only with
  | [] -> true
  | names -> List.mem name names

let banner title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let timed name f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "[%s completed in %.1fs]\n" name dt;
  result

let print_tables tables = List.iter Stats.Table.print tables

(* ------------------------------------------------------------------ *)
(* Experiment sizes: the default regenerates stable statistics; --quick
   shrinks everything for smoke runs. *)

type sizes = {
  dataset : int;
  ases : int;
  poisons : int;
  loss_poisons : int;
  feeds : int;
  failures : int;
  outages : int;
}

let sizes () =
  if !quick then
    {
      dataset = 2000;
      ases = 150;
      poisons = 8;
      loss_poisons = 5;
      feeds = 15;
      failures = 30;
      outages = 80;
    }
  else
    {
      dataset = 10308;
      ases = 318;
      poisons = 25;
      loss_poisons = 15;
      feeds = 40;
      failures = 120;
      outages = 400;
    }

(* ------------------------------------------------------------------ *)

let () =
  parse_args ();
  if !show_metrics || !trace_path <> None then begin
    (* Libraries read time through the injected Obs.Clock only; the
       binary is the one place the real clock is installed. *)
    Obs.Clock.set Unix.gettimeofday;
    Obs.Metrics.enable ()
  end;
  (match !trace_path with Some path -> Obs.Trace.enable_file path | None -> ());
  let s = sizes () in
  let seed = !seed in
  Printf.printf "LIFEGUARD reproduction benchmark harness (seed %d%s)\n" seed
    (if !quick then ", quick mode" else "");

  if wanted "fig1" then begin
    banner "Figure 1: outage durations vs unavailability";
    let r = timed "fig1" (fun () -> Experiments.Fig1_durations.run ~n:s.dataset ~seed ()) in
    print_tables (Experiments.Fig1_durations.to_tables r)
  end;

  if wanted "fig5" then begin
    banner "Figure 5: residual outage duration";
    let r = timed "fig5" (fun () -> Experiments.Fig5_residual.run ~n:s.dataset ~seed ()) in
    print_tables (Experiments.Fig5_residual.to_tables r)
  end;

  if wanted "alt-paths" then begin
    banner "Section 2.2: alternate policy-compliant paths";
    let r =
      timed "alt-paths" (fun () ->
          Experiments.Sec22_alt_paths.run ~ases:s.ases ~outage_count:s.outages ~seed ())
    in
    print_tables (Experiments.Sec22_alt_paths.to_tables r)
  end;

  let efficacy =
    if wanted "efficacy" || wanted "table1" then begin
      banner "Section 5.1: poisoning efficacy";
      let r =
        timed "efficacy" (fun () ->
            Experiments.Sec51_efficacy.run ~ases:s.ases ~max_poisons:s.poisons ~jobs:!jobs
              ~seed ())
      in
      print_tables (Experiments.Sec51_efficacy.to_tables r);
      Some r
    end
    else None
  in

  let convergence =
    if wanted "fig6" || wanted "table1" then begin
      banner "Figure 6: convergence after poisoned announcements";
      let r =
        timed "fig6" (fun () ->
            Experiments.Fig6_convergence.run ~ases:s.ases ~max_poisons:s.poisons ~jobs:!jobs
              ~seed ())
      in
      print_tables (Experiments.Fig6_convergence.to_tables r);
      Some r
    end
    else None
  in

  let loss =
    if wanted "loss" || wanted "table1" then begin
      banner "Section 5.2: loss during convergence";
      let r =
        timed "loss" (fun () ->
            Experiments.Sec52_loss.run ~ases:s.ases ~max_poisons:s.loss_poisons ~jobs:!jobs
              ~seed ())
      in
      print_tables (Experiments.Sec52_loss.to_tables r);
      Some r
    end
    else None
  in

  let selective =
    if wanted "selective" || wanted "table1" then begin
      banner "Section 5.2: selective poisoning + forward diversity";
      let r =
        timed "selective" (fun () ->
            Experiments.Sec52_selective.run ~ases:s.ases ~max_feeds:s.feeds ~jobs:!jobs
              ~seed ())
      in
      print_tables (Experiments.Sec52_selective.to_tables r);
      Some r
    end
    else None
  in

  let accuracy =
    if wanted "accuracy" || wanted "scalability" || wanted "table1" then begin
      banner "Section 5.3: isolation accuracy";
      let r =
        timed "accuracy" (fun () ->
            Experiments.Sec53_accuracy.run ~ases:s.ases ~failure_count:s.failures ~jobs:!jobs
              ~seed ())
      in
      print_tables (Experiments.Sec53_accuracy.to_tables r);
      Some r
    end
    else None
  in

  let scalability =
    match accuracy with
    | Some acc when wanted "scalability" || wanted "table1" ->
        banner "Section 5.4: scalability";
        let r =
          timed "scalability" (fun () ->
              Experiments.Sec54_scalability.run ~ases:s.ases ~seed ~accuracy:acc ())
        in
        print_tables (Experiments.Sec54_scalability.to_tables r);
        Some r
    | _ -> None
  in

  if wanted "load" then begin
    banner "Table 2: update load at deployment scale";
    let r = timed "load" (fun () -> Experiments.Tab2_load.run ~n:s.dataset ~seed ()) in
    print_tables (Experiments.Tab2_load.to_tables r)
  end;

  if wanted "hubble" then begin
    banner "Hubble-style monitoring: deriving H(d) for Table 2";
    let r =
      timed "hubble" (fun () ->
          Experiments.Hubble_study.run ~ases:(min s.ases 200)
            ~days:(if !quick then 2.0 else 7.0)
            ~jobs:!jobs ~seed ())
    in
    print_tables (Experiments.Hubble_study.to_tables r)
  end;

  if wanted "anomalies" then begin
    banner "Section 7.1: poisoning anomalies";
    let r =
      timed "anomalies" (fun () ->
          Experiments.Sec71_anomalies.run ~ases:(min s.ases 200) ~jobs:!jobs ~seed ())
    in
    print_tables (Experiments.Sec71_anomalies.to_tables r)
  end;

  if wanted "sentinel" then begin
    banner "Section 7.2: sentinel variants";
    let r = timed "sentinel" (fun () -> Experiments.Sec72_sentinel.run ()) in
    print_tables (Experiments.Sec72_sentinel.to_tables r)
  end;

  if wanted "ablation" then begin
    banner "Ablation: prepending / MRAI / FIB latency";
    let r =
      timed "ablation" (fun () ->
          Experiments.Ablation.run ~ases:(min s.ases 200) ~poisons:(min s.poisons 10)
            ~jobs:!jobs ~seed ())
    in
    print_tables (Experiments.Ablation.to_tables r)
  end;

  if wanted "damping" then begin
    banner "Route-flap damping: why announcements were spaced 90 minutes";
    let r =
      timed "damping" (fun () ->
          Experiments.Damping.run ~ases:(min s.ases 150) ~jobs:!jobs ~seed ())
    in
    print_tables (Experiments.Damping.to_tables r)
  end;

  if wanted "fleet" then begin
    banner "Fleet operations: continuous multi-outage service loop";
    let config =
      {
        Fleet.Service.default_config with
        Fleet.Service.duration = (if !quick then 10800.0 else 86400.0);
      }
    in
    let r =
      timed "fleet" (fun () ->
          Experiments.Fleet_study.run ~config
            ~targets:(if !quick then 50 else 250)
            ~jobs:!jobs ~seed ())
    in
    print_tables (Experiments.Fleet_study.to_tables r)
  end;

  if wanted "faults" then begin
    banner "Fault study: repair robustness under control-plane faults";
    let config =
      {
        Fleet.Service.default_config with
        Fleet.Service.duration = (if !quick then 10800.0 else 21600.0);
      }
    in
    let r =
      timed "faults" (fun () ->
          Experiments.Fault_study.run ~config
            ~intensities:(if !quick then [ 0.0; 1.0 ] else Experiments.Fault_study.default_intensities)
            ~targets:(if !quick then 25 else 100)
            ~jobs:!jobs ~seed ())
    in
    print_tables (Experiments.Fault_study.to_tables r)
  end;

  if wanted "plan" then begin
    banner "Plan study: precomputed remediation vs compute-from-scratch";
    let config =
      {
        Experiments.Plan_study.default_config with
        Fleet.Service.duration = (if !quick then 21600.0 else 43200.0);
      }
    in
    let r =
      timed "plan" (fun () ->
          Experiments.Plan_study.run ~config
            ~targets:(if !quick then 20 else 40)
            ~jobs:!jobs ~seed ())
    in
    print_tables (Experiments.Plan_study.to_tables r)
  end;

  if wanted "recover" then begin
    banner "Recover: durable journal + snapshots, crash-and-resume fidelity";
    let config =
      {
        Fleet.Service.default_config with
        Fleet.Service.duration = (if !quick then 10800.0 else 21600.0);
        target_count = 12;
        outages_per_day = 96.0;
      }
    in
    let snapshot_every = config.Fleet.Service.duration /. 4.0 in
    let last_snap = ref None in
    let reference =
      timed "recover" (fun () ->
          Fleet.Service.run_durable ~config ~seed ~snapshot_every
            ~snapshot_sink:(fun s -> last_snap := Some s)
            ())
    in
    match reference with
    | Fleet.Service.Interrupted _ -> assert false (* no crash injected *)
    | Fleet.Service.Finished { report; recovery } ->
        let journal_lines = List.length recovery.Fleet.Service.rc_journal in
        let snapshot_bytes, capture_ms =
          match !last_snap with
          | None -> (0, 0.0)
          | Some s ->
              let bytes = String.length (Recover.Snapshot.render s) in
              let reps = 100 in
              let t0 = Unix.gettimeofday () in
              for _ = 1 to reps do
                ignore (Recover.Snapshot.render s)
              done;
              (bytes, (Unix.gettimeofday () -. t0) *. 1000.0 /. float_of_int reps)
        in
        (* Crash mid-journal at the after-write boundary (record persisted,
           effect lost — the boundary recovery must heal), then resume and
           demand byte-identity with the uninterrupted report. *)
        let crash_append = Int.max 1 (journal_lines / 2) in
        let crashed =
          Fleet.Service.run_durable ~config ~seed
            ~crash:{ Recover.Crash.boundary = Recover.Crash.After_write; append = crash_append }
            ~snapshot_every
            ()
        in
        let t0 = Unix.gettimeofday () in
        let resumed =
          match crashed with
          | Fleet.Service.Finished _ -> assert false (* crash_append <= journal length *)
          | Fleet.Service.Interrupted { journal; snapshot; _ } ->
              Fleet.Service.run_durable ~config ~seed ~journal ?snapshot ~snapshot_every ()
        in
        let resume_seconds = Unix.gettimeofday () -. t0 in
        let identical =
          match resumed with
          | Fleet.Service.Interrupted _ -> false
          | Fleet.Service.Finished { report = r2; recovery = rc2 } ->
              List.equal String.equal
                (Fleet.Service.render_report report)
                (Fleet.Service.render_report r2)
              && rc2.Fleet.Service.rc_reconcile.Recover.Reconcile.clean
        in
        Printf.printf
          "[recover: %d journal lines, %d snapshot bytes, capture %.3f ms, crash@%d resume \
           %.1fs, %s]\n"
          journal_lines snapshot_bytes capture_ms crash_append resume_seconds
          (if identical then "byte-identical" else "DIVERGED");
        if not identical then diverged := !diverged @ [ "recover: crash-resume" ]
  end;

  if wanted "case-study" then begin
    banner "Section 6: case study";
    let r = timed "case-study" (fun () -> Experiments.Case_study.run ()) in
    print_tables (Experiments.Case_study.to_tables r)
  end;

  if wanted "lint" then begin
    banner "Static analysis: lifeguard-lint wall-clock";
    (* The benchmark usually runs from _build/default/bench, where the
       mirrored sources sit one level up; fall back gracefully when the
       tree is not around (e.g. an installed binary). *)
    let root =
      if Sys.file_exists "lib" then Some "."
      else if Sys.file_exists "../lib" then Some ".."
      else None
    in
    match root with
    | None -> Printf.printf "(sources not present; skipped)\n"
    | Some root ->
        let dirs =
          List.filter Sys.file_exists
            (List.map (Filename.concat root) [ "lib"; "bin"; "bench"; "examples" ])
        in
        let r = timed "lint" (fun () -> Lint.scan ~dirs ()) in
        let eff, _ = timed "lint-effects" (fun () -> Lint.analyse ~dirs ()) in
        let summarized = List.length (Lint.Effects.summary_rows eff) in
        Printf.printf "%d violation(s) pre-baseline, %d parse error(s); %d exported definitions summarized\n"
          (List.length r.Lint.violations)
          (List.length r.Lint.errors)
          summarized
  end;

  (match (efficacy, convergence, loss, selective, accuracy, scalability) with
  | Some e, Some c, Some l, Some sel, Some a, Some sc when wanted "table1" ->
      banner "Table 1: summary of key results";
      print_tables
        (Experiments.Tab1_summary.to_tables ~efficacy:e ~convergence:c ~loss:l ~selective:sel
           ~accuracy:a ~scalability:sc)
  | _ -> ());

  if !show_metrics then begin
    banner "Metrics";
    Experiments.Metrics_report.print ()
  end;
  (match !trace_path with
  | Some path ->
      Obs.Trace.close ();
      Printf.printf "\n[wrote trace %s]\n" path
  | None -> ());
  match !diverged with
  | [] -> ()
  | what ->
      Printf.eprintf "DIVERGED: %s\n" (String.concat "; " what);
      exit 1
