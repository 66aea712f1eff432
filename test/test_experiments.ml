(* End-to-end experiment drivers at reduced scale: the assertions check
   shape (who wins, directionally), not the paper's absolute numbers. *)

let in_unit x = x >= 0.0 && x <= 1.0

let test_fig1 () =
  let r = Experiments.Fig1_durations.run ~n:3000 ~seed:42 () in
  Alcotest.(check bool) "most events are short" true (r.Experiments.Fig1_durations.fraction_events_le_10min > 0.85);
  Alcotest.(check bool) "long events dominate unavailability" true
    (r.Experiments.Fig1_durations.unavailability_share_gt_10min > 0.5);
  Alcotest.(check bool) "the two CDFs cross the right way" true
    (r.Experiments.Fig1_durations.fraction_events_le_10min
    > 1.0 -. r.Experiments.Fig1_durations.unavailability_share_gt_10min);
  Alcotest.(check int) "series lengths match" (List.length r.Experiments.Fig1_durations.events_cdf)
    (List.length r.Experiments.Fig1_durations.unavailability_cdf);
  (* Rendering must not raise. *)
  ignore (Experiments.Fig1_durations.to_tables r)

let test_fig5 () =
  let r = Experiments.Fig5_residual.run ~n:3000 ~seed:42 () in
  Alcotest.(check bool) "5+5 survival near half" true
    (r.Experiments.Fig5_residual.survival_5_plus_5 > 0.35
    && r.Experiments.Fig5_residual.survival_5_plus_5 < 0.65);
  Alcotest.(check bool) "most unavailability is repairable" true
    (r.Experiments.Fig5_residual.repairable_share > 0.45);
  (* Residual mean must grow with elapsed time (the paper's key point). *)
  let means =
    List.map
      (fun p -> p.Experiments.Fig5_residual.mean_residual_min)
      r.Experiments.Fig5_residual.points
  in
  (match (means, List.rev means) with
  | first :: _, last :: _ -> Alcotest.(check bool) "hazard decreases" true (last > first)
  | _ -> Alcotest.fail "no points");
  ignore (Experiments.Fig5_residual.to_tables r)

let test_tab2 () =
  let r = Experiments.Tab2_load.run ~n:3000 ~seed:42 () in
  Alcotest.(check bool) "anchor near 275" true
    (r.Experiments.Tab2_load.reference_cell > 200.0 && r.Experiments.Tab2_load.reference_cell < 350.0);
  Alcotest.(check bool) "small deployments are cheap" true
    (r.Experiments.Tab2_load.overhead_small_deploy < 0.10);
  Alcotest.(check int) "full grid" 18 (List.length r.Experiments.Tab2_load.rows);
  ignore (Experiments.Tab2_load.to_tables r)

let test_efficacy () =
  let r = Experiments.Sec51_efficacy.run ~ases:150 ~max_poisons:10 ~jobs:1 ~seed:42 () in
  Alcotest.(check bool) "some poisonings observed" true (r.Experiments.Sec51_efficacy.cases > 0);
  Alcotest.(check bool) "fractions in unit range" true
    (in_unit r.Experiments.Sec51_efficacy.fraction_rerouted
    && in_unit r.Experiments.Sec51_efficacy.fraction_sim);
  Alcotest.(check bool) "simulation strongly predicts live outcomes" true
    (r.Experiments.Sec51_efficacy.agreement > 0.8);
  ignore (Experiments.Sec51_efficacy.to_tables r)

let test_fig6 () =
  let r = Experiments.Fig6_convergence.run ~ases:150 ~max_poisons:6 ~jobs:1 ~seed:42 () in
  let find label =
    List.find (fun s -> s.Experiments.Fig6_convergence.label = label)
      r.Experiments.Fig6_convergence.series
  in
  let p_nc = find "Prepend, no change" in
  let np_nc = find "No prepend, no change" in
  (* The paper's headline: prepending makes unaffected peers converge
     instantly far more often. *)
  Alcotest.(check bool) "prepending helps" true
    (p_nc.Experiments.Fig6_convergence.instant >= np_nc.Experiments.Fig6_convergence.instant);
  Alcotest.(check bool) "prepend instant is near-total" true
    (p_nc.Experiments.Fig6_convergence.instant > 0.9);
  ignore (Experiments.Fig6_convergence.to_tables r)

let test_case_study () =
  let r = Experiments.Case_study.run () in
  Alcotest.(check bool) "blames UUNET" true r.Experiments.Case_study.diagnosis_blames_uunet;
  Alcotest.(check bool) "repaired" true r.Experiments.Case_study.repaired;
  Alcotest.(check bool) "unpoisoned after repair" true
    r.Experiments.Case_study.unpoisoned_after_repair;
  (* The connectivity story: down after injection, up after reaction. *)
  let phase label =
    List.find (fun c -> c.Experiments.Case_study.label = label) r.Experiments.Case_study.checks
  in
  Alcotest.(check bool) "up before" true (phase "before failure").Experiments.Case_study.reachable;
  Alcotest.(check bool) "down during" false
    (phase "failure injected").Experiments.Case_study.reachable;
  Alcotest.(check bool) "up after reaction" true
    (phase "after LIFEGUARD reacts").Experiments.Case_study.reachable;
  Alcotest.(check bool) "up after unpoison" true
    (phase "after repair + unpoison").Experiments.Case_study.reachable;
  ignore (Experiments.Case_study.to_tables r)

let test_accuracy_small () =
  let r = Experiments.Sec53_accuracy.run ~ases:150 ~failure_count:25 ~jobs:1 ~seed:42 () in
  Alcotest.(check bool) "isolates most failures" true (r.Experiments.Sec53_accuracy.isolated > 10);
  Alcotest.(check bool) "consistency is high" true
    (r.Experiments.Sec53_accuracy.fraction_consistent > 0.7);
  Alcotest.(check bool) "nonzero probing cost" true (r.Experiments.Sec53_accuracy.mean_probes > 0.0);
  ignore (Experiments.Sec53_accuracy.to_tables r)

let test_alt_paths_small () =
  let r = Experiments.Sec22_alt_paths.run ~ases:150 ~outage_count:60 ~seed:42 () in
  Alcotest.(check bool) "alternates found for some outages" true
    (r.Experiments.Sec22_alt_paths.fraction_all > 0.2);
  Alcotest.(check bool) "fractions in range" true
    (in_unit r.Experiments.Sec22_alt_paths.fraction_all
    && in_unit r.Experiments.Sec22_alt_paths.fraction_long
    && in_unit r.Experiments.Sec22_alt_paths.persistence);
  ignore (Experiments.Sec22_alt_paths.to_tables r)

let test_sentinel_variants () =
  let r = Experiments.Sec72_sentinel.run () in
  let row v =
    List.find (fun x -> x.Experiments.Sec72_sentinel.variant = v) r.Experiments.Sec72_sentinel.rows
  in
  let covering = row Experiments.Sec72_sentinel.Covering_less_specific in
  Alcotest.(check bool) "covering: captive kept" true
    covering.Experiments.Sec72_sentinel.captive_has_route;
  Alcotest.(check bool) "covering: repair detectable" true
    covering.Experiments.Sec72_sentinel.repair_detectable;
  let disjoint = row Experiments.Sec72_sentinel.Disjoint_unused in
  Alcotest.(check bool) "disjoint: captive cut off" false
    disjoint.Experiments.Sec72_sentinel.captive_has_route;
  Alcotest.(check bool) "disjoint: repair detectable" true
    disjoint.Experiments.Sec72_sentinel.repair_detectable;
  let none = row Experiments.Sec72_sentinel.No_sentinel in
  Alcotest.(check bool) "none: captive cut off" false
    none.Experiments.Sec72_sentinel.captive_has_route;
  Alcotest.(check bool) "none: repair invisible" false
    none.Experiments.Sec72_sentinel.repair_detectable;
  ignore (Experiments.Sec72_sentinel.to_tables r)

let test_anomalies () =
  let r = Experiments.Sec71_anomalies.run ~ases:120 ~jobs:1 ~seed:42 () in
  Alcotest.(check bool) "some relaxed ASes probed" true
    (r.Experiments.Sec71_anomalies.relaxed_ases > 0);
  Alcotest.(check int) "single poison never takes on relaxed ASes"
    r.Experiments.Sec71_anomalies.relaxed_ases
    r.Experiments.Sec71_anomalies.single_poison_ineffective;
  Alcotest.(check int) "doubling the ASN always takes"
    r.Experiments.Sec71_anomalies.single_poison_ineffective
    r.Experiments.Sec71_anomalies.double_poison_effective;
  Alcotest.(check bool) "filtered branch propagates less" true
    (r.Experiments.Sec71_anomalies.tier1_poison_via_filter_reached
    < r.Experiments.Sec71_anomalies.tier1_poison_via_clean_reached);
  ignore (Experiments.Sec71_anomalies.to_tables r)

let test_ablation () =
  let r = Experiments.Ablation.run ~ases:120 ~poisons:4 ~jobs:1 ~seed:42 () in
  let find label =
    List.find (fun row -> row.Experiments.Ablation.label = label) r.Experiments.Ablation.rows
  in
  let base = find "baseline: prepend, MRAI 30, FIB instant" in
  let noprep = find "no prepending" in
  Alcotest.(check bool) "prepending never hurts instant convergence" true
    (base.Experiments.Ablation.instant_unaffected
    >= noprep.Experiments.Ablation.instant_unaffected);
  Alcotest.(check bool) "prepending shortens global convergence" true
    (base.Experiments.Ablation.global_median <= noprep.Experiments.Ablation.global_median);
  let fast = find "MRAI 5 s" in
  Alcotest.(check bool) "smaller MRAI converges faster" true
    (fast.Experiments.Ablation.global_median <= base.Experiments.Ablation.global_median);
  ignore (Experiments.Ablation.to_tables r)

let test_hubble () =
  let r = Experiments.Hubble_study.run ~ases:120 ~days:2.0 ~jobs:1 ~seed:42 () in
  Alcotest.(check bool) "failures injected" true (r.Experiments.Hubble_study.injected > 10);
  Alcotest.(check bool) "incidents detected" true (r.Experiments.Hubble_study.detected > 0);
  Alcotest.(check bool) "H(d) decreasing in d" true
    (r.Experiments.Hubble_study.h5 >= r.Experiments.Hubble_study.h15
    && r.Experiments.Hubble_study.h15 >= r.Experiments.Hubble_study.h60);
  ignore (Experiments.Hubble_study.to_tables r)

let test_damping () =
  let r = Experiments.Damping.run ~ases:120 ~jobs:1 ~seed:42 () in
  Alcotest.(check bool) "rapid flapping trips suppression" true
    (r.Experiments.Damping.rapid_suppressors > 0);
  Alcotest.(check int) "spaced announcements never do" 0
    r.Experiments.Damping.spaced_suppressors;
  Alcotest.(check int) "nobody cut off when spaced" 0 r.Experiments.Damping.spaced_cutoff;
  ignore (Experiments.Damping.to_tables r)

(* Exactness pins for the §5.2 drivers at 60 ASes, taken before the
   loss driver kept its ambient rates in sampler order and read its
   verdicts through the reachability memo, and before the selective
   trials stopped restoring worlds they drop. Floats are compared as
   exact hex ([%h]). *)
let test_loss_pinned () =
  List.iter
    (fun (seed, expected) ->
      let r = Experiments.Sec52_loss.run ~ases:60 ~max_poisons:4 ~jobs:1 ~seed () in
      Alcotest.(check (list string))
        (Printf.sprintf "loss rates at seed %d" seed)
        expected
        (Array.to_list (Array.map (Printf.sprintf "%h") r.Experiments.Sec52_loss.loss_rates)))
    [
      (42, [ "0x1.5f15f15f15f16p-6"; "0x0p+0"; "0x1.c71c71c71c71cp-7"; "0x1.c71c71c71c71cp-6" ]);
      (7, [ "0x0p+0"; "0x0p+0"; "0x0p+0"; "0x1.d41d41d41d41dp-8" ]);
    ]

(* A converged world does not remember how it got there, so the result
   alone cannot tell whether each poisoning attempt started from the
   baseline. The BGP work can: [bgp.delivered] over the whole run is the
   count before the final restores were dropped (6,358 at seed 42, 6,444
   at seed 7) minus the deliveries of exactly those restores (809 and
   952, counted on the older driver). Attempts made without restoring
   the baseline deliver 2,888 and 3,311. *)
let test_selective_pinned () =
  List.iter
    (fun (seed, delivered) ->
      Obs.Metrics.reset ();
      Obs.Metrics.enable ();
      let r = Experiments.Sec52_selective.run ~ases:60 ~max_feeds:8 ~jobs:1 ~seed () in
      let snap = Obs.Metrics.snapshot () in
      Obs.Metrics.disable ();
      Obs.Metrics.reset ();
      Alcotest.(check string)
        (Printf.sprintf "selective result at seed %d" seed)
        "feeds 8 reverse 0x1.4p-1 forward 0x1.4p-1 undisturbed true"
        (Printf.sprintf "feeds %d reverse %h forward %h undisturbed %b"
           r.Experiments.Sec52_selective.feeds_tested
           r.Experiments.Sec52_selective.fraction_reverse
           r.Experiments.Sec52_selective.fraction_forward
           r.Experiments.Sec52_selective.undisturbed_ok);
      Alcotest.(check int)
        (Printf.sprintf "bgp.delivered at seed %d" seed)
        delivered
        (Obs.Metrics.counter_value snap "bgp.delivered"))
    [ (42, 5549); (7, 5492) ]

(* Views of one converged world (Runner.run_views): a trial that writes
   the shared world through its view must make the driver-level check
   raise, at any [jobs]; a trial that only reads must not. Each case gets
   a fresh world, so one misuse cannot mask the next. *)
let view_world () =
  Workloads.Scenarios.planetlab ~ases:60 ~sites:4 ~target_count:3
    ~infrastructure:Workloads.Scenarios.Sites ~seed:3 ()

let test_view_guard () =
  let open Workloads in
  let misuses =
    [
      ( "Control_and_data failure",
        fun (v : Scenarios.testbed) ->
          Dataplane.Failure.inject v.Scenarios.net v.Scenarios.failures
            (Dataplane.Failure.spec ~mode:Dataplane.Failure.Control_and_data
               (Dataplane.Failure.Node (List.hd v.Scenarios.targets))) );
      ( "announcement",
        fun (v : Scenarios.testbed) ->
          Bgp.Network.announce v.Scenarios.net ~origin:(List.hd v.Scenarios.vantage_points)
            ~prefix:(Net.Prefix.of_string_exn "198.51.100.0/24") () );
    ]
  in
  List.iter
    (fun (what, misuse) ->
      List.iter
        (fun jobs ->
          match Experiments.Runner.run_views ~jobs (view_world ()) [ ignore; misuse ] with
          | _ -> Alcotest.failf "%s through a view at jobs %d: the check did not raise" what jobs
          | exception Failure _ -> ())
        [ 1; 2 ])
    misuses;
  (* A read-only trial: Data_only failures in its own set, probes, and
     events on its own engine, which starts at the world's clock. *)
  let reader (v : Scenarios.testbed) =
    let src = List.hd v.Scenarios.vantage_points and dst = List.hd v.Scenarios.targets in
    let t0 = Sim.Engine.now v.Scenarios.engine in
    let spec = Dataplane.Failure.spec (Dataplane.Failure.Node dst) in
    Sim.Engine.schedule v.Scenarios.engine ~at:(t0 +. 60.0) (fun () ->
        Dataplane.Failure.inject v.Scenarios.net v.Scenarios.failures spec);
    Sim.Engine.run ~until:(t0 +. 120.0) v.Scenarios.engine;
    let ping () =
      Dataplane.Probe.ping v.Scenarios.probe ~src
        ~dst:(Dataplane.Forward.probe_address v.Scenarios.net dst)
    in
    let during = ping () in
    Dataplane.Failure.heal v.Scenarios.net v.Scenarios.failures spec;
    let after = ping () in
    (t0, during, after, v.Scenarios.probe.Dataplane.Probe.probes_sent)
  in
  List.iter
    (fun jobs ->
      let world = view_world () in
      let t0 = Sim.Engine.now world.Scenarios.engine in
      let results = Experiments.Runner.run_views ~jobs world [ reader; reader ] in
      List.iter
        (fun (start, during, after, probes) ->
          Alcotest.(check (float 0.0)) "a view's engine starts at the world's clock" t0 start;
          Alcotest.(check bool) "the failure breaks the view's ping" false during;
          Alcotest.(check bool) "healed" true after;
          Alcotest.(check int) "each view counts its own probes" 2 probes)
        results;
      Alcotest.(check (float 0.0)) "the world's clock has not moved" t0
        (Sim.Engine.now world.Scenarios.engine))
    [ 1; 2 ]

let suite =
  [
    Alcotest.test_case "fig1 shape" `Quick test_fig1;
    Alcotest.test_case "fig5 shape" `Quick test_fig5;
    Alcotest.test_case "table2 anchor" `Quick test_tab2;
    Alcotest.test_case "efficacy shape" `Slow test_efficacy;
    Alcotest.test_case "fig6 shape" `Slow test_fig6;
    Alcotest.test_case "case study end-to-end" `Slow test_case_study;
    Alcotest.test_case "accuracy shape" `Slow test_accuracy_small;
    Alcotest.test_case "alt-paths shape" `Slow test_alt_paths_small;
    Alcotest.test_case "sentinel variants (sec 7.2)" `Quick test_sentinel_variants;
    Alcotest.test_case "poisoning anomalies (sec 7.1)" `Slow test_anomalies;
    Alcotest.test_case "ablation directions" `Slow test_ablation;
    Alcotest.test_case "hubble H(d) derivation" `Slow test_hubble;
    Alcotest.test_case "flap damping vs spacing" `Slow test_damping;
    Alcotest.test_case "sec 5.2 loss rates pinned" `Slow test_loss_pinned;
    Alcotest.test_case "sec 5.2 selective result and BGP work pinned" `Slow test_selective_pinned;
    Alcotest.test_case "a view writing its world raises" `Quick test_view_guard;
  ]
