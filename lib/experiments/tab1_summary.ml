let to_tables ~efficacy ~convergence ~loss ~selective ~accuracy ~scalability =
  let t =
    Stats.Table.create ~title:"Table 1: key LIFEGUARD results (paper vs measured)"
      ~columns:[ "criteria"; "summary"; "paper"; "measured" ]
  in
  let prepend_nc =
    List.find (fun s -> s.Fig6_convergence.label = "Prepend, no change")
      convergence.Fig6_convergence.series
  in
  Stats.Table.add_rows t
    [
      [
        "Effectiveness";
        "peers find routes avoiding poisoned ASes";
        "77% live / 90% simulated";
        Printf.sprintf "%s live / %s simulated"
          (Stats.Table.cell_pct efficacy.Sec51_efficacy.fraction_rerouted)
          (Stats.Table.cell_pct efficacy.Sec51_efficacy.fraction_sim);
      ];
      [
        "Disruptiveness";
        "unaffected routes reconverge instantly";
        "95% instant";
        Stats.Table.cell_pct prepend_nc.Fig6_convergence.instant;
      ];
      [
        "Disruptiveness";
        "minimal loss during convergence";
        "<2% loss in 98% of cases";
        Printf.sprintf "<2%% loss in %s of cases"
          (Stats.Table.cell_pct loss.Sec52_loss.fraction_under_2pct);
      ];
      [
        "Disruptiveness";
        "selective poisoning avoids first-hop links";
        "73%";
        Stats.Table.cell_pct selective.Sec52_selective.fraction_reverse;
      ];
      [
        "Accuracy";
        "isolation consistent with ground truth";
        "93% (169/182)";
        Stats.Table.cell_pct accuracy.Sec53_accuracy.fraction_consistent;
      ];
      [
        "Accuracy";
        "differs from traceroute-only diagnosis";
        "40%";
        Stats.Table.cell_pct accuracy.Sec53_accuracy.fraction_traceroute_differs;
      ];
      [
        "Scalability";
        "isolation latency / probes per outage";
        "140 s / ~280 probes";
        Printf.sprintf "%.0f s / %.0f probes"
          scalability.Sec54_scalability.isolation_elapsed_mean
          scalability.Sec54_scalability.isolation_probes_mean;
      ];
    ];
  [ t ]
