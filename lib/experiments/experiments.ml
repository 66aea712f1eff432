(** Experiment drivers: one module per table or figure of the paper.

    Each module exposes [run] (deterministic given its seed) returning a
    typed result, and [to_tables] rendering paper-vs-measured rows. The
    CLI ([bin/lifeguard_cli]) runs them all ([lifeguard paper]) or one
    per subcommand, at the sizes of its one size table. *)

module Runner = Runner
module Poisoning = Poisoning
module Fig1_durations = Fig1_durations
module Fig5_residual = Fig5_residual
module Sec22_alt_paths = Sec22_alt_paths
module Sec51_efficacy = Sec51_efficacy
module Fig6_convergence = Fig6_convergence
module Sec52_loss = Sec52_loss
module Sec52_selective = Sec52_selective
module Sec53_accuracy = Sec53_accuracy
module Sec54_scalability = Sec54_scalability
module Sec71_anomalies = Sec71_anomalies
module Sec72_sentinel = Sec72_sentinel
module Ablation = Ablation
module Hubble_study = Hubble_study
module Damping = Damping
module Tab1_summary = Tab1_summary
module Tab2_load = Tab2_load
module Case_study = Case_study
module Fleet_study = Fleet_study
module Fault_study = Fault_study
module Plan_study = Plan_study
module Metrics_report = Metrics_report
