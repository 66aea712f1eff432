(* lifeguard — command-line front end to the reproduction.

   [paper] regenerates the paper's evaluation: every table and figure,
   then Table 1, each experiment under a banner with its wall-clock. The
   other subcommands run one experiment each (with no flags, the same
   tables [paper] prints for it), replay the case study, or poke at a
   simulated Internet interactively enough for demos:

     lifeguard paper --quick --only fig6,loss
     lifeguard fig1 --seed 42 --outages 10308
     lifeguard efficacy --ases 318 --poisons 25
     lifeguard case-study
     lifeguard topo --ases 200 --seed 7
     lifeguard poison --ases 150 --seed 7 --target 123 *)

open Cmdliner

let print_tables tables = List.iter Stats.Table.print tables

(* Experiment sizes, the one place they are set. [full] regenerates
   stable statistics and supplies every subcommand's flag defaults;
   [quick] shrinks everything for smoke runs ([paper --quick]). *)
type sizes = {
  dataset : int;  (* modeled outage durations: fig1, fig5, load *)
  ases : int;  (* alt-paths, the sec. 5 drivers, scalability *)
  outages : int;  (* alt-paths *)
  poisons : int;  (* efficacy, fig6 *)
  loss_poisons : int;
  feeds : int;  (* selective *)
  failures : int;  (* accuracy, and the accuracy run scalability builds on *)
  study_ases : int;  (* hubble, anomalies, ablation *)
  hubble_days : float;
  ablation_poisons : int;
  damping_ases : int;
  fleet_duration : float;
  fleet_targets : int;
  faults_duration : float;
  faults_targets : int;
  intensities : float list;
  plan_duration : float;
  plan_targets : int;
}

let full =
  {
    dataset = 10308;
    ases = 318;
    outages = 400;
    poisons = 25;
    loss_poisons = 15;
    feeds = 40;
    failures = 120;
    study_ases = 200;
    hubble_days = 7.0;
    ablation_poisons = 10;
    damping_ases = 150;
    fleet_duration = 86400.0;
    fleet_targets = 250;
    faults_duration = 21600.0;
    faults_targets = 100;
    intensities = Experiments.Fault_study.default_intensities;
    plan_duration = 43200.0;
    plan_targets = 40;
  }

let quick =
  {
    dataset = 2000;
    ases = 150;
    outages = 80;
    poisons = 8;
    loss_poisons = 5;
    feeds = 15;
    failures = 30;
    study_ases = 150;
    hubble_days = 2.0;
    ablation_poisons = 8;
    damping_ases = 150;
    fleet_duration = 10800.0;
    fleet_targets = 50;
    faults_duration = 10800.0;
    faults_targets = 25;
    intensities = [ 0.0; 1.0 ];
    plan_duration = 21600.0;
    plan_targets = 20;
  }

(* Common options *)
let seed =
  let doc = "PRNG seed; every experiment is deterministic given its seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let ases default =
  let doc = "Approximate AS count of the synthetic Internet; any value runs as given." in
  Arg.(value & opt int default & info [ "ases" ] ~docv:"N" ~doc)

let count name default doc = Arg.(value & opt int default & info [ name ] ~docv:"N" ~doc)

let seconds name default doc =
  Arg.(value & opt float default & info [ name ] ~docv:"SECONDS" ~doc)

(* Flag-domain validation: cmdliner catches malformed values (a
   non-numeric seed), but in-domain nonsense (negative durations, zero
   targets) must not reach the simulator. One line on stderr, exit 2. *)
let check cond msg =
  if not cond then begin
    prerr_endline ("lifeguard: " ^ msg);
    exit 2
  end

let check_positive_f flag v = check (v > 0.0) (Printf.sprintf "%s must be positive (got %g)" flag v)
let check_positive_i flag v = check (v > 0) (Printf.sprintf "%s must be positive (got %d)" flag v)

let check_rate flag v =
  check (v >= 0.0) (Printf.sprintf "%s must be non-negative (got %g)" flag v)

let check_probability flag v =
  check (v >= 0.0 && v <= 1.0) (Printf.sprintf "%s must be within [0,1] (got %g)" flag v)

let check_ases ases =
  let least = Topology.Topo_gen.min_ases in
  check (ases >= least) (Printf.sprintf "--ases must be at least %d (got %d)" least ases)

let jobs =
  (* The OCaml runtime's domain limit ([Max_domains] in caml/domain.h):
     past it [Domain.spawn] raises in the middle of a run. *)
  let max_jobs = 128 in
  let doc =
    Printf.sprintf
      "Worker domains for trial-level parallelism, 1 to %d (default: the machine's \
       recommended domain count). Results are identical for every value; \
       1 forces the sequential path."
      max_jobs
  in
  let raw = Arg.(value & opt int (Par.Pool.default_jobs ()) & info [ "jobs"; "j" ] ~docv:"N" ~doc) in
  (* Checked here rather than by a converter, so an out-of-range value is
     one stderr line and exit 2 like every other out-of-range flag (a
     converter error would exit 124), once for all the subcommands that
     take it, and before any domain starts. *)
  let in_range n =
    check_positive_i "--jobs" n;
    check (n <= max_jobs) (Printf.sprintf "--jobs must be at most %d (got %d)" max_jobs n);
    n
  in
  Term.(const in_range $ raw)

(* Observability options, shared by every experiment subcommand. *)
type obs_opts = { trace : string option; metrics : bool }

let obs_term =
  let trace =
    let doc =
      "Stream structured JSONL trace events to $(docv) (implies $(b,--metrics)). \
       One JSON object per line: ts, domain, span, kv."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics =
    let doc = "Record Obs counters during the run and print a summary table after it." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let v trace metrics = { trace; metrics } in
  Term.(const v $ trace $ metrics)

(* Runs [f], discarding its result, with the requested observability on. *)
let with_obs o f =
  if o.metrics || o.trace <> None then begin
    (* Libraries only read time through the injected Obs.Clock; the
       binary is the one place the real clock is installed. *)
    Obs.Clock.set Unix.gettimeofday;
    Obs.Metrics.enable ()
  end;
  (match o.trace with Some path -> Obs.Trace.enable_file path | None -> ());
  Fun.protect
    ~finally:(fun () -> Obs.Trace.close ())
    (fun () ->
      ignore (f ());
      if o.metrics then Experiments.Metrics_report.print ())

(* How an experiment is shown. Each experiment below names its run and
   its tables once; a subcommand shows it [bare], [paper] under a banner
   with a timing line, and [silent] only runs it, for another
   experiment's input. *)
type show = {
  show : 'r. name:string -> title:string -> (unit -> 'r) -> ('r -> Stats.Table.t list) -> 'r;
}

let silent = { show = (fun ~name:_ ~title:_ run _ -> run ()) }

let bare =
  {
    show =
      (fun ~name:_ ~title:_ run tables ->
        let r = run () in
        print_tables (tables r);
        r);
  }

let banner title = Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let timed =
  {
    show =
      (fun ~name ~title run tables ->
        banner title;
        (* Start each experiment on a collected heap, so that the garbage
           the last one left does not add to this one's peak. *)
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        let r = run () in
        Printf.printf "[%s completed in %.1fs]\n" name (Unix.gettimeofday () -. t0);
        print_tables (tables r);
        r);
  }

(* The experiments, in [paper]'s order. *)

let fig1 x s ~seed =
  x.show ~name:"fig1" ~title:"Figure 1: outage durations vs unavailability"
    (fun () -> Experiments.Fig1_durations.run ~n:s.dataset ~seed ())
    Experiments.Fig1_durations.to_tables

let fig5 x s ~seed =
  x.show ~name:"fig5" ~title:"Figure 5: residual outage duration"
    (fun () -> Experiments.Fig5_residual.run ~n:s.dataset ~seed ())
    Experiments.Fig5_residual.to_tables

let alt_paths x s ~seed =
  x.show ~name:"alt-paths" ~title:"Section 2.2: alternate policy-compliant paths"
    (fun () -> Experiments.Sec22_alt_paths.run ~ases:s.ases ~outage_count:s.outages ~seed ())
    Experiments.Sec22_alt_paths.to_tables

let efficacy x s ~jobs ~seed =
  x.show ~name:"efficacy" ~title:"Section 5.1: poisoning efficacy"
    (fun () -> Experiments.Sec51_efficacy.run ~ases:s.ases ~max_poisons:s.poisons ~jobs ~seed ())
    Experiments.Sec51_efficacy.to_tables

let fig6 x s ~jobs ~seed =
  x.show ~name:"fig6" ~title:"Figure 6: convergence after poisoned announcements"
    (fun () -> Experiments.Fig6_convergence.run ~ases:s.ases ~max_poisons:s.poisons ~jobs ~seed ())
    Experiments.Fig6_convergence.to_tables

let loss x s ~jobs ~seed =
  x.show ~name:"loss" ~title:"Section 5.2: loss during convergence"
    (fun () -> Experiments.Sec52_loss.run ~ases:s.ases ~max_poisons:s.loss_poisons ~jobs ~seed ())
    Experiments.Sec52_loss.to_tables

let selective x s ~jobs ~seed =
  x.show ~name:"selective" ~title:"Section 5.2: selective poisoning + forward diversity"
    (fun () -> Experiments.Sec52_selective.run ~ases:s.ases ~max_feeds:s.feeds ~jobs ~seed ())
    Experiments.Sec52_selective.to_tables

let accuracy x s ~jobs ~seed =
  x.show ~name:"accuracy" ~title:"Section 5.3: isolation accuracy"
    (fun () ->
      Experiments.Sec53_accuracy.run ~ases:s.ases ~failure_count:s.failures ~jobs ~seed ())
    Experiments.Sec53_accuracy.to_tables

let scalability x s ~seed accuracy =
  x.show ~name:"scalability" ~title:"Section 5.4: scalability"
    (fun () -> Experiments.Sec54_scalability.run ~ases:s.ases ~seed ~accuracy ())
    Experiments.Sec54_scalability.to_tables

let load x s ~seed =
  x.show ~name:"load" ~title:"Table 2: update load at deployment scale"
    (fun () -> Experiments.Tab2_load.run ~n:s.dataset ~seed ())
    Experiments.Tab2_load.to_tables

let hubble x s ~jobs ~seed =
  x.show ~name:"hubble" ~title:"Hubble-style monitoring: deriving H(d) for Table 2"
    (fun () ->
      Experiments.Hubble_study.run ~ases:s.study_ases ~days:s.hubble_days ~jobs ~seed ())
    Experiments.Hubble_study.to_tables

let anomalies x s ~jobs ~seed =
  x.show ~name:"anomalies" ~title:"Section 7.1: poisoning anomalies"
    (fun () -> Experiments.Sec71_anomalies.run ~ases:s.study_ases ~jobs ~seed ())
    Experiments.Sec71_anomalies.to_tables

let sentinel x =
  x.show ~name:"sentinel" ~title:"Section 7.2: sentinel variants" Experiments.Sec72_sentinel.run
    Experiments.Sec72_sentinel.to_tables

let ablation x s ~jobs ~seed =
  x.show ~name:"ablation" ~title:"Ablation: prepending / MRAI / FIB latency"
    (fun () ->
      Experiments.Ablation.run ~ases:s.study_ases ~poisons:s.ablation_poisons ~jobs ~seed ())
    Experiments.Ablation.to_tables

let damping x s ~jobs ~seed =
  x.show ~name:"damping" ~title:"Route-flap damping: why announcements were spaced 90 minutes"
    (fun () -> Experiments.Damping.run ~ases:s.damping_ases ~jobs ~seed ())
    Experiments.Damping.to_tables

let fleet x config s ~jobs ~seed =
  x.show ~name:"fleet" ~title:"Fleet operations: continuous multi-outage service loop"
    (fun () ->
      Experiments.Fleet_study.run
        ~config:{ config with Fleet.Service.duration = s.fleet_duration }
        ~targets:s.fleet_targets ~jobs ~seed ())
    Experiments.Fleet_study.to_tables

let faults x ?profile config s ~jobs ~seed =
  x.show ~name:"faults" ~title:"Fault study: repair robustness under control-plane faults"
    (fun () ->
      Experiments.Fault_study.run
        ~config:{ config with Fleet.Service.duration = s.faults_duration }
        ?profile ~intensities:s.intensities ~targets:s.faults_targets ~jobs ~seed ())
    Experiments.Fault_study.to_tables

let plan x config s ~jobs ~seed =
  x.show ~name:"plan" ~title:"Plan study: precomputed remediation vs compute-from-scratch"
    (fun () ->
      Experiments.Plan_study.run
        ~config:{ config with Fleet.Service.duration = s.plan_duration }
        ~targets:s.plan_targets ~jobs ~seed ())
    Experiments.Plan_study.to_tables

let case_study x =
  x.show ~name:"case-study" ~title:"Section 6: case study" Experiments.Case_study.run
    Experiments.Case_study.to_tables

(* One subcommand per experiment: its flags override [full]. *)

let fig1_cmd =
  let run obs seed dataset =
    check_positive_i "--outages" dataset;
    with_obs obs (fun () -> fig1 bare { full with dataset } ~seed)
  in
  Cmd.v
    (Cmd.info "fig1" ~doc:"Outage duration CDF vs unavailability (paper Fig. 1)")
    Term.(const run $ obs_term $ seed $ count "outages" full.dataset "Dataset size.")

let fig5_cmd =
  let run obs seed dataset =
    check_positive_i "--outages" dataset;
    with_obs obs (fun () -> fig5 bare { full with dataset } ~seed)
  in
  Cmd.v
    (Cmd.info "fig5" ~doc:"Residual outage durations (paper Fig. 5)")
    Term.(const run $ obs_term $ seed $ count "outages" full.dataset "Dataset size.")

let alt_paths_cmd =
  let run obs seed ases outages =
    check_ases ases;
    check_positive_i "--outages" outages;
    with_obs obs (fun () -> alt_paths bare { full with ases; outages } ~seed)
  in
  Cmd.v
    (Cmd.info "alt-paths" ~doc:"Alternate policy-compliant path existence (paper sec. 2.2)")
    Term.(
      const run $ obs_term $ seed $ ases full.ases
      $ count "outages" full.outages "Failures to inject.")

let poisons_arg default = count "poisons" default "ASes to poison."

let efficacy_cmd =
  let run obs seed ases poisons jobs =
    check_ases ases;
    check_positive_i "--poisons" poisons;
    with_obs obs (fun () -> efficacy bare { full with ases; poisons } ~jobs ~seed)
  in
  Cmd.v
    (Cmd.info "efficacy" ~doc:"Poisoning efficacy, live + simulated (paper sec. 5.1)")
    Term.(const run $ obs_term $ seed $ ases full.ases $ poisons_arg full.poisons $ jobs)

let fig6_cmd =
  let run obs seed ases poisons jobs =
    check_ases ases;
    check_positive_i "--poisons" poisons;
    with_obs obs (fun () -> fig6 bare { full with ases; poisons } ~jobs ~seed)
  in
  Cmd.v
    (Cmd.info "fig6" ~doc:"Convergence after poisoned announcements (paper Fig. 6)")
    Term.(const run $ obs_term $ seed $ ases full.ases $ poisons_arg full.poisons $ jobs)

let loss_cmd =
  let run obs seed ases loss_poisons jobs =
    check_ases ases;
    check_positive_i "--poisons" loss_poisons;
    with_obs obs (fun () -> loss bare { full with ases; loss_poisons } ~jobs ~seed)
  in
  Cmd.v
    (Cmd.info "loss" ~doc:"Packet loss during convergence (paper sec. 5.2)")
    Term.(const run $ obs_term $ seed $ ases full.ases $ poisons_arg full.loss_poisons $ jobs)

let selective_cmd =
  let run obs seed ases feeds jobs =
    check_ases ases;
    check_positive_i "--feeds" feeds;
    with_obs obs (fun () -> selective bare { full with ases; feeds } ~jobs ~seed)
  in
  Cmd.v
    (Cmd.info "selective" ~doc:"Selective poisoning + forward diversity (paper sec. 5.2/2.3)")
    Term.(
      const run $ obs_term $ seed $ ases full.ases
      $ count "feeds" full.feeds "Feed ASes to test." $ jobs)

let accuracy_cmd =
  let run obs seed ases failures jobs =
    check_ases ases;
    check_positive_i "--failures" failures;
    with_obs obs (fun () -> accuracy bare { full with ases; failures } ~jobs ~seed)
  in
  Cmd.v
    (Cmd.info "accuracy" ~doc:"Failure isolation accuracy (paper sec. 5.3)")
    Term.(
      const run $ obs_term $ seed $ ases full.ases
      $ count "failures" full.failures "Failures to isolate." $ jobs)

let scalability_cmd =
  let run obs seed ases jobs =
    check_ases ases;
    let s = { full with ases } in
    with_obs obs (fun () -> scalability bare s ~seed (accuracy silent s ~jobs ~seed))
  in
  Cmd.v
    (Cmd.info "scalability" ~doc:"Atlas refresh + isolation overhead (paper sec. 5.4)")
    Term.(const run $ obs_term $ seed $ ases full.ases $ jobs)

let load_cmd =
  let run obs seed = with_obs obs (fun () -> load bare full ~seed) in
  Cmd.v
    (Cmd.info "load" ~doc:"Update load at deployment scale (paper Table 2)")
    Term.(const run $ obs_term $ seed)

let hubble_cmd =
  let days =
    Arg.(value & opt float full.hubble_days & info [ "days" ] ~docv:"D" ~doc:"Observation window.")
  in
  let run obs seed study_ases hubble_days jobs =
    check_ases study_ases;
    check_positive_f "--days" hubble_days;
    with_obs obs (fun () -> hubble bare { full with study_ases; hubble_days } ~jobs ~seed)
  in
  Cmd.v
    (Cmd.info "hubble" ~doc:"Hubble-style monitoring week: derive H(d) for Table 2")
    Term.(const run $ obs_term $ seed $ ases full.study_ases $ days $ jobs)

let anomalies_cmd =
  let run obs seed study_ases jobs =
    check_ases study_ases;
    with_obs obs (fun () -> anomalies bare { full with study_ases } ~jobs ~seed)
  in
  Cmd.v
    (Cmd.info "anomalies" ~doc:"Poisoning anomalies: loop-limit + Cogent filters (paper sec. 7.1)")
    Term.(const run $ obs_term $ seed $ ases full.study_ases $ jobs)

let sentinel_cmd =
  let run obs () = with_obs obs (fun () -> sentinel bare) in
  Cmd.v
    (Cmd.info "sentinel" ~doc:"Sentinel prefix variants (paper sec. 7.2)")
    Term.(const run $ obs_term $ const ())

let ablation_cmd =
  let run obs seed study_ases ablation_poisons jobs =
    check_ases study_ases;
    check_positive_i "--poisons" ablation_poisons;
    with_obs obs (fun () -> ablation bare { full with study_ases; ablation_poisons } ~jobs ~seed)
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Prepending / MRAI / FIB-latency ablation grid")
    Term.(
      const run $ obs_term $ seed $ ases full.study_ases
      $ count "poisons" full.ablation_poisons "Poisonings per row." $ jobs)

let damping_cmd =
  let run obs seed damping_ases jobs =
    check_ases damping_ases;
    with_obs obs (fun () -> damping bare { full with damping_ases } ~jobs ~seed)
  in
  Cmd.v
    (Cmd.info "damping" ~doc:"Route-flap damping vs announcement spacing")
    Term.(const run $ obs_term $ seed $ ases full.damping_ases $ jobs)

let case_study_cmd =
  let run obs () = with_obs obs (fun () -> case_study bare) in
  Cmd.v
    (Cmd.info "case-study" ~doc:"Replay the Taiwan/Wisconsin incident (paper sec. 6)")
    Term.(const run $ obs_term $ const ())

let topo_cmd =
  let run seed ases =
    check_ases ases;
    let gen = Topology.Topo_gen.generate ~params:(Topology.Topo_gen.sized ases) ~seed () in
    Format.printf "%a@." Topology.As_graph.pp_stats gen.Topology.Topo_gen.graph;
    let g = gen.Topology.Topo_gen.graph in
    let degrees =
      List.map (fun a -> float_of_int (Topology.As_graph.degree g a)) (Topology.As_graph.as_list g)
      |> Array.of_list
    in
    Printf.printf "degree: mean %.1f, median %.0f, max %.0f\n"
      (Stats.Descriptive.mean degrees)
      (Stats.Descriptive.median degrees)
      (snd (Stats.Descriptive.min_max degrees))
  in
  Cmd.v
    (Cmd.info "topo" ~doc:"Generate a synthetic AS topology and print its shape")
    Term.(const run $ seed $ ases full.ases)

let poison_cmd =
  let target =
    Arg.(
      value
      & opt (some int) None
      & info [ "target" ] ~docv:"ASN"
          ~doc:"AS to poison, other than the origin (default: first harvested).")
  in
  let run seed ases target =
    check_ases ases;
    let mux = Workloads.Scenarios.bgpmux ~ases ~seed () in
    let net = mux.Workloads.Scenarios.bed.Workloads.Scenarios.net in
    Lifeguard.Remediate.announce_baseline net mux.Workloads.Scenarios.plan;
    Bgp.Network.run_until_quiet net;
    let harvest = Workloads.Scenarios.harvest_on_path_ases mux in
    let target =
      match target with
      | None -> List.hd harvest
      | Some t ->
          let graph = mux.Workloads.Scenarios.bed.Workloads.Scenarios.graph in
          check
            (t >= 0 && Topology.As_graph.mem graph (Net.Asn.of_int t))
            (Printf.sprintf "--target must be an AS of the simulated Internet (got %d)" t);
          check
            (t <> Net.Asn.to_int mux.Workloads.Scenarios.origin)
            (Printf.sprintf "--target must not be the origin AS (got %d)" t);
          Net.Asn.of_int t
    in
    Format.printf "Poisoning %a on a %d-AS Internet...@." Net.Asn.pp target ases;
    let before =
      List.filter
        (fun feed ->
          match Bgp.Network.best_route net feed Workloads.Scenarios.production_prefix with
          | Some e ->
              Bgp.As_path.traverses ~origin:mux.Workloads.Scenarios.origin ~target
                e.Bgp.Route.ann.Bgp.Route.path
          | None -> false)
        mux.Workloads.Scenarios.feeds
    in
    Lifeguard.Remediate.poison net mux.Workloads.Scenarios.plan ~target;
    Bgp.Network.run_until_quiet net;
    List.iter
      (fun feed ->
        match Bgp.Network.best_route net feed Workloads.Scenarios.production_prefix with
        | Some e ->
            Format.printf "  %a rerouted to [%a]@." Net.Asn.pp feed Bgp.As_path.pp
              e.Bgp.Route.ann.Bgp.Route.path
        | None -> Format.printf "  %a cut off (captive)@." Net.Asn.pp feed)
      before;
    if before = [] then
      Format.printf "  (no collector feed was routing through %a)@." Net.Asn.pp target
  in
  Cmd.v
    (Cmd.info "poison" ~doc:"Poison one AS on a synthetic Internet and show who reroutes")
    Term.(const run $ seed $ ases full.ases $ target)

let duration_arg default = seconds "duration" default "Simulated observation window per world."
let targets_arg default = count "targets" default "Monitored networks fleet-wide."

let fleet_cmd =
  let duration = duration_arg full.fleet_duration in
  let targets = targets_arg full.fleet_targets in
  let outages =
    Arg.(
      value
      & opt float 12.0
      & info [ "outages-per-day" ] ~docv:"R" ~doc:"Poisson outage arrival rate per world.")
  in
  let probe_loss =
    Arg.(
      value
      & opt float 0.0
      & info [ "probe-loss" ] ~docv:"P" ~doc:"Chaos: per-probe-pair loss probability.")
  in
  let vp_mtbf =
    Arg.(
      value
      & opt float 0.0
      & info [ "vp-mtbf" ] ~docv:"SECONDS"
          ~doc:"Chaos: mean vantage-point uptime between crashes (0 disables).")
  in
  let staleness =
    Arg.(
      value
      & opt float 0.0
      & info [ "atlas-staleness" ] ~docv:"P"
          ~doc:"Chaos: probability an atlas refresh is skipped.")
  in
  let planning =
    Arg.(
      value & flag
      & info [ "planning" ]
          ~doc:"Consult the precomputed remediation plan cache before fresh decisions.")
  in
  let journal_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Daemon mode: run one durable world and persist the write-ahead operations journal \
             to $(docv) (one line per controller action, flushed before each effect).")
  in
  let resume_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Daemon mode: resume a crashed durable run from the journal in $(docv) (replay is \
             verified byte-for-byte; the continued journal is written back to $(b,--journal), \
             defaulting to $(docv) itself).")
  in
  let snapshot_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Daemon mode: rewrite $(docv) with the latest state snapshot at every mark; on \
             $(b,--resume), an existing $(docv) is loaded and verified against re-execution at \
             the marks $(b,--snapshot-every) sets (so resuming with $(docv) requires it).")
  in
  let snapshot_every =
    Arg.(
      value
      & opt float 0.0
      & info [ "snapshot-every" ] ~docv:"SECONDS"
          ~doc:"Daemon mode: capture a snapshot every $(docv) simulated seconds (0 disables).")
  in
  let crash_at =
    Arg.(
      value
      & opt int 0
      & info [ "crash-at" ] ~docv:"N"
          ~doc:
            "Crash injection: die at the $(docv)-th journal append (1-based; 0 disables), at \
             the boundary chosen by $(b,--crash-boundary). Exits 3 with a resume hint.")
  in
  let crash_boundary =
    Arg.(
      value
      & opt (enum [ ("before", "before-write"); ("write", "after-write"); ("effect", "after-effect") ])
          "after-write"
      & info [ "crash-boundary" ] ~docv:"B"
          ~doc:
            "Where the injected crash fires relative to the journal append: $(b,before) (record \
             lost), $(b,write) (record persisted, effect lost) or $(b,effect) (both landed).")
  in
  let read_all file =
    let ic = open_in_bin file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  (* Replace [file] by [text] atomically: a crash leaves the old file or
     the new one, never a mix. *)
  let write_atomically file text =
    let tmp = file ^ ".tmp" in
    let c = open_out_bin tmp in
    output_string c text;
    close_out c;
    Sys.rename tmp file
  in
  (* Daemon mode: one durable world. The journal is appended live and
     flushed per line, so a kill leaves at worst one unterminated final
     line: [Journal.parse_lines] drops it as a torn write and refuses any
     complete line that does not parse. A resumed journal is rewritten
     only once re-execution has verified its whole prefix, so a refused
     resume leaves it as it was. The snapshot file is atomically
     rewritten per mark. A refusal is one line on stderr and exit 2; a
     crash exits 3. *)
  let run_daemon ~config ~seed ~journal_file ~resume_file ~snapshot_file ~snapshot_every ~crash =
    let refuse msg =
      prerr_endline ("lifeguard: " ^ msg);
      exit 2
    in
    let read what f =
      try read_all f with Sys_error e -> refuse (Printf.sprintf "cannot read %s: %s" what e)
    in
    let journal_lines =
      match resume_file with
      | None -> []
      | Some f -> (
          match Recover.Journal.parse_lines (read "journal" f) with
          | Ok records -> List.map Recover.Record.to_line records
          | Error e -> refuse (Printf.sprintf "corrupt journal %s: %s" f e))
    in
    let resuming = journal_lines <> [] in
    let snapshot =
      match snapshot_file with
      | Some f when resuming && Sys.file_exists f -> begin
          match Recover.Snapshot.parse_result (read "snapshot" f) with
          | Ok s
            when String.equal s.Recover.Snapshot.config_fp
                   (Fleet.Service.config_fingerprint ~config ~seed) ->
              Some s
          | Ok _ -> refuse ("snapshot " ^ f ^ " was taken under a different config or seed")
          | Error e -> refuse ("unreadable snapshot " ^ f ^ ": " ^ e)
        end
      | _ -> None
    in
    let out_journal =
      match (journal_file, resume_file) with
      | Some f, _ -> f
      | None, Some f -> f
      | None, None -> assert false
    in
    (* Opened on first use: the verified prefix goes to a temporary file
       renamed over [out_journal], then fresh lines are appended. *)
    let oc = ref None in
    let journal_out () =
      match !oc with
      | Some c -> c
      | None ->
          write_atomically out_journal
            (String.concat "" (List.map (fun l -> l ^ "\n") journal_lines));
          let c = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 out_journal in
          oc := Some c;
          c
    in
    let to_replay = ref (List.length journal_lines) in
    let journal_sink line =
      if !to_replay > 0 then decr to_replay
      else begin
        let c = journal_out () in
        output_string c (line ^ "\n");
        flush c
      end
    in
    let snapshot_sink s =
      match snapshot_file with
      | None -> ()
      | Some f -> write_atomically f (Recover.Snapshot.render s)
    in
    let snapshot_every = if snapshot_every > 0.0 then Some snapshot_every else None in
    let outcome =
      match
        Fleet.Service.run_durable ~config ~seed ~journal:journal_lines ?snapshot ?crash
          ?snapshot_every ~journal_sink ~snapshot_sink ()
      with
      | outcome -> outcome
      | exception (Recover.Journal.Divergence _ as e) ->
          refuse
            (Printf.sprintf "journal %s does not replay under this config and seed: %s"
               (Option.value resume_file ~default:out_journal)
               (Printexc.to_string e))
      | exception Recover.Snapshot.Mismatch { mark } ->
          refuse
            (Printf.sprintf "snapshot %s does not match re-execution at mark %d"
               (Option.value snapshot_file ~default:"-")
               mark)
    in
    close_out (journal_out ());
    match outcome with
    | Fleet.Service.Finished { report; recovery } ->
        List.iter print_endline (Fleet.Service.render_report report);
        Format.printf "journal %d lines (%d replayed), %d snapshot marks@."
          (List.length recovery.Fleet.Service.rc_journal)
          recovery.Fleet.Service.rc_replayed recovery.Fleet.Service.rc_marks;
        Format.printf "reconcile %s@." (Recover.Reconcile.render recovery.Fleet.Service.rc_reconcile)
    | Fleet.Service.Interrupted { boundary; append; journal; _ } ->
        Format.eprintf "lifeguard: crashed at journal append %d (%s); %d lines persisted@."
          append
          (Recover.Crash.boundary_to_string boundary)
          (List.length journal);
        Format.eprintf "lifeguard: resume with: lifeguard fleet --resume %s%s@." out_journal
          (match (snapshot_file, snapshot_every) with
          | Some f, Some every -> Printf.sprintf " --snapshot %s --snapshot-every %g" f every
          | Some f, None -> " --snapshot " ^ f
          | None, _ -> "");
        exit 3
  in
  let run obs seed duration targets outages probe_loss vp_mtbf staleness planning jobs
      journal_file resume_file snapshot_file snapshot_every crash_at crash_boundary =
    check_positive_f "--duration" duration;
    check_positive_i "--targets" targets;
    check_rate "--outages-per-day" outages;
    check_probability "--probe-loss" probe_loss;
    check_rate "--vp-mtbf" vp_mtbf;
    check_probability "--atlas-staleness" staleness;
    check (crash_at >= 0) (Printf.sprintf "--crash-at must be >= 0 (got %d)" crash_at);
    check (snapshot_every >= 0.0)
      (Printf.sprintf "--snapshot-every must be >= 0 (got %g)" snapshot_every);
    (* A resumed run compares a loaded snapshot with re-execution only at
       a mark, so without marks the snapshot would go unchecked. *)
    check
      (not (Option.is_some resume_file && Option.is_some snapshot_file && snapshot_every = 0.0))
      "--resume with --snapshot needs --snapshot-every: the snapshot is verified only at marks";
    with_obs obs (fun () ->
        let config =
          {
            Fleet.Service.default_config with
            Fleet.Service.duration;
            outages_per_day = outages;
            chaos =
              { Fleet.Chaos.probe_loss; vp_mtbf; atlas_staleness = staleness };
            planning;
          }
        in
        match (journal_file, resume_file) with
        | None, None ->
            check (crash_at = 0) "--crash-at requires daemon mode (--journal or --resume)";
            check (snapshot_every = 0.0)
              "--snapshot-every requires daemon mode (--journal or --resume)";
            ignore
              (fleet bare config
                 { full with fleet_duration = duration; fleet_targets = targets }
                 ~jobs ~seed)
        | _ ->
            let crash =
              if crash_at = 0 then None
              else
                match Recover.Crash.boundary_of_string crash_boundary with
                | Some boundary -> Some { Recover.Crash.boundary; append = crash_at }
                | None ->
                    check false ("unknown crash boundary " ^ crash_boundary);
                    None
            in
            run_daemon
              ~config:{ config with Fleet.Service.target_count = targets }
              ~seed ~journal_file ~resume_file ~snapshot_file ~snapshot_every ~crash)
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Continuous fleet operations: budgeted monitoring, concurrent repair pipelines, \
          damping-paced announcements, optional chaos; --journal/--resume run one durable \
          crash-tolerant world")
    Term.(
      const run $ obs_term $ seed $ duration $ targets $ outages $ probe_loss $ vp_mtbf $ staleness
      $ planning $ jobs $ journal_file $ resume_file $ snapshot_file $ snapshot_every
      $ crash_at $ crash_boundary)

let faults_cmd =
  let duration = duration_arg full.faults_duration in
  let targets = targets_arg full.faults_targets in
  let outages =
    Arg.(
      value
      & opt float 12.0
      & info [ "outages-per-day" ] ~docv:"R" ~doc:"Poisson outage arrival rate per world.")
  in
  let intensities =
    Arg.(
      value
      & opt (list float) full.intensities
      & info [ "intensities" ] ~docv:"I,..."
          ~doc:"Fault intensities to sweep; 0 is the fault-free control.")
  in
  let flap_mtbf =
    Arg.(
      value
      & opt float Experiments.Fault_study.default_profile.Bgp.Faults.session_flap_mtbf
      & info [ "flap-mtbf" ] ~docv:"SECONDS"
          ~doc:"Mean seconds between BGP session flaps per link at intensity 1 (0 disables).")
  in
  let flap_downtime =
    Arg.(
      value
      & opt float Experiments.Fault_study.default_profile.Bgp.Faults.session_flap_downtime
      & info [ "flap-downtime" ] ~docv:"SECONDS" ~doc:"Mean seconds a flapped session stays down.")
  in
  let link_mtbf =
    Arg.(
      value
      & opt float Experiments.Fault_study.default_profile.Bgp.Faults.link_mtbf
      & info [ "link-mtbf" ] ~docv:"SECONDS"
          ~doc:"Mean link uptime at intensity 1 (0 disables link failures).")
  in
  let link_mttr =
    Arg.(
      value
      & opt float Experiments.Fault_study.default_profile.Bgp.Faults.link_mttr
      & info [ "link-mttr" ] ~docv:"SECONDS" ~doc:"Mean seconds to repair a failed link.")
  in
  let router_mtbf =
    Arg.(
      value
      & opt float Experiments.Fault_study.default_profile.Bgp.Faults.router_mtbf
      & info [ "router-mtbf" ] ~docv:"SECONDS"
          ~doc:"Mean router uptime at intensity 1 (0 disables crashes).")
  in
  let router_mttr =
    Arg.(
      value
      & opt float Experiments.Fault_study.default_profile.Bgp.Faults.router_mttr
      & info [ "router-mttr" ] ~docv:"SECONDS" ~doc:"Mean seconds a crashed router stays down.")
  in
  let update_loss =
    Arg.(
      value
      & opt float Experiments.Fault_study.default_profile.Bgp.Faults.update_loss
      & info [ "update-loss" ] ~docv:"P"
          ~doc:"Per-message update loss probability at intensity 1.")
  in
  let update_dup =
    Arg.(
      value
      & opt float Experiments.Fault_study.default_profile.Bgp.Faults.update_dup
      & info [ "update-dup" ] ~docv:"P"
          ~doc:"Per-message update duplication probability at intensity 1.")
  in
  let run obs seed duration targets outages intensities flap_mtbf flap_downtime link_mtbf
      link_mttr router_mtbf router_mttr update_loss update_dup jobs =
    check_positive_f "--duration" duration;
    check_positive_i "--targets" targets;
    check_rate "--outages-per-day" outages;
    check (intensities <> []) "--intensities must list at least one intensity";
    List.iter
      (fun i -> check (i >= 0.0) (Printf.sprintf "--intensities must be >= 0 (got %g)" i))
      intensities;
    check_rate "--flap-mtbf" flap_mtbf;
    check_rate "--link-mtbf" link_mtbf;
    check_rate "--router-mtbf" router_mtbf;
    check_probability "--update-loss" update_loss;
    check_probability "--update-dup" update_dup;
    let profile =
      {
        Bgp.Faults.session_flap_mtbf = flap_mtbf;
        session_flap_downtime = flap_downtime;
        link_mtbf;
        link_mttr;
        router_mtbf;
        router_mttr;
        update_loss;
        update_dup;
      }
    in
    (* Cross-field domain errors (loss + dup > 1, non-positive repair
       times on an enabled class) surface from the library's validator. *)
    let profile =
      try Bgp.Faults.validate profile
      with Invalid_argument msg ->
        prerr_endline ("lifeguard: " ^ msg);
        exit 2
    in
    with_obs obs (fun () ->
        faults bare ~profile
          { Fleet.Service.default_config with outages_per_day = outages }
          { full with faults_duration = duration; faults_targets = targets; intensities }
          ~jobs ~seed)
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Fault study: fleet operations under control-plane fault injection (session flaps, \
          link failures, router crashes, update loss/duplication) at increasing intensity")
    Term.(
      const run $ obs_term $ seed $ duration $ targets $ outages $ intensities $ flap_mtbf
      $ flap_downtime $ link_mtbf $ link_mttr $ router_mtbf $ router_mttr $ update_loss
      $ update_dup $ jobs)

let plan_cmd =
  let duration = duration_arg full.plan_duration in
  let targets = targets_arg full.plan_targets in
  let outages =
    Arg.(
      value
      & opt float Experiments.Plan_study.default_config.Fleet.Service.outages_per_day
      & info [ "outages-per-day" ] ~docv:"R" ~doc:"Poisson outage arrival rate per world.")
  in
  let latency =
    Arg.(
      value
      & opt float Experiments.Plan_study.default_config.Fleet.Service.decision_latency
      & info [ "decision-latency" ] ~docv:"SECONDS"
          ~doc:"Simulated cost of one fresh decision round; plan hits skip it.")
  in
  let run obs seed duration targets outages latency jobs =
    check_positive_f "--duration" duration;
    check_positive_i "--targets" targets;
    check_rate "--outages-per-day" outages;
    check_rate "--decision-latency" latency;
    with_obs obs (fun () ->
        plan bare
          {
            Experiments.Plan_study.default_config with
            Fleet.Service.outages_per_day = outages;
            decision_latency = latency;
          }
          { full with plan_duration = duration; plan_targets = targets }
          ~jobs ~seed)
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Plan study: precomputed remediation plans vs compute-from-scratch on a \
          recurring-outage workload (hit rate, invalidations, repair latency)")
    Term.(
      const run $ obs_term $ seed $ duration $ targets $ outages $ latency $ jobs)

let paper_names =
  [
    "fig1"; "fig5"; "alt-paths"; "efficacy"; "fig6"; "loss"; "selective"; "accuracy";
    "scalability"; "load"; "hubble"; "anomalies"; "sentinel"; "ablation"; "damping"; "fleet";
    "faults"; "plan"; "case-study"; "table1";
  ]

let paper_cmd =
  let quick_flag =
    let doc = "Run every experiment at its quick size, a smoke run." in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let only =
    let names = List.map (fun n -> (n, n)) paper_names in
    let doc =
      "Run only the named experiments, a comma-separated list; each is "
      ^ Arg.doc_alts_enum names
      ^ ". $(b,table1) also runs the five drivers it joins and scalability; \
         $(b,scalability) also runs accuracy."
    in
    Arg.(value & opt (list (enum names)) [] & info [ "only" ] ~docv:"NAME,..." ~doc)
  in
  let run obs seed quick_run only jobs =
    let s = if quick_run then quick else full in
    let wanted name = only = [] || List.mem name only in
    let table1 = wanted "table1" in
    let x = timed in
    let run_if cond f = if cond then Some (f ()) else None in
    with_obs obs (fun () ->
        Printf.printf "LIFEGUARD reproduction: the paper's tables and figures (seed %d%s)\n" seed
          (if quick_run then ", quick mode" else "");
        if wanted "fig1" then ignore (fig1 x s ~seed);
        if wanted "fig5" then ignore (fig5 x s ~seed);
        if wanted "alt-paths" then ignore (alt_paths x s ~seed);
        let e = run_if (wanted "efficacy" || table1) (fun () -> efficacy x s ~jobs ~seed) in
        let c = run_if (wanted "fig6" || table1) (fun () -> fig6 x s ~jobs ~seed) in
        let l = run_if (wanted "loss" || table1) (fun () -> loss x s ~jobs ~seed) in
        let sel = run_if (wanted "selective" || table1) (fun () -> selective x s ~jobs ~seed) in
        let a =
          run_if
            (wanted "accuracy" || wanted "scalability" || table1)
            (fun () -> accuracy x s ~jobs ~seed)
        in
        let sc =
          match a with
          | Some acc when wanted "scalability" || table1 -> Some (scalability x s ~seed acc)
          | _ -> None
        in
        if wanted "load" then ignore (load x s ~seed);
        if wanted "hubble" then ignore (hubble x s ~jobs ~seed);
        if wanted "anomalies" then ignore (anomalies x s ~jobs ~seed);
        if wanted "sentinel" then ignore (sentinel x);
        if wanted "ablation" then ignore (ablation x s ~jobs ~seed);
        if wanted "damping" then ignore (damping x s ~jobs ~seed);
        if wanted "fleet" then ignore (fleet x Fleet.Service.default_config s ~jobs ~seed);
        if wanted "faults" then ignore (faults x Fleet.Service.default_config s ~jobs ~seed);
        if wanted "plan" then ignore (plan x Experiments.Plan_study.default_config s ~jobs ~seed);
        if wanted "case-study" then ignore (case_study x);
        (match (e, c, l, sel, a, sc) with
        | Some efficacy, Some convergence, Some loss, Some selective, Some accuracy,
          Some scalability
          when table1 ->
            banner "Table 1: summary of key results";
            print_tables
              (Experiments.Tab1_summary.to_tables ~efficacy ~convergence ~loss ~selective ~accuracy
                 ~scalability)
        | _ -> ());
        if obs.metrics then banner "Metrics")
  in
  Cmd.v
    (Cmd.info "paper"
       ~doc:
         "Regenerate the paper's evaluation: every experiment at the sizes its subcommand \
          defaults to (or at its quick size), each under a banner with its wall-clock, then \
          Table 1")
    Term.(const run $ obs_term $ seed $ quick_flag $ only $ jobs)

let main =
  let doc = "LIFEGUARD (SIGCOMM 2012) reproduction: failure localization and BGP-poisoning repair" in
  Cmd.group (Cmd.info "lifeguard" ~version:"1.0.0" ~doc)
    [
      paper_cmd;
      fig1_cmd;
      fig5_cmd;
      alt_paths_cmd;
      efficacy_cmd;
      fig6_cmd;
      loss_cmd;
      selective_cmd;
      accuracy_cmd;
      scalability_cmd;
      load_cmd;
      hubble_cmd;
      anomalies_cmd;
      sentinel_cmd;
      ablation_cmd;
      damping_cmd;
      fleet_cmd;
      faults_cmd;
      plan_cmd;
      case_study_cmd;
      topo_cmd;
      poison_cmd;
    ]

let () = exit (Cmd.eval main)
