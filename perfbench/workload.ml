(* The three benchmark workloads, called through the experiment drivers'
   public entry points only. Each workload has a set-up (what a run pays
   before the simulated clock starts counting) and a run (the whole
   study), and a run reports what the correctness gate and the
   throughput metrics need. *)

type size = Full | Tiny

type outcome = {
  digest : string;  (** MD5 of the rendered tables, hex. *)
  attempted : int;  (** Detected outages (fleet workloads) or trials (paper-batch). *)
  trials : int;  (** Trial worlds run through the pool. *)
  isolations : int;  (** Isolation pipeline runs, for the core share estimate. *)
  checks : (string * bool) list;  (** Named identities over the result. *)
  fleets : Experiments.Fleet_study.result list;  (** Fleet workloads only. *)
}

type t = {
  name : string;
  ases : int;  (** Size of the workload's synthetic Internet. *)
  setup : seed:int -> unit;  (** At --jobs 1. *)
  run : jobs:int -> seed:int -> outcome;
}

let digest_tables tables =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map Stats.Table.render tables)))

(* Every detected outage ends in exactly one of the four buckets. *)
let accounting (r : Experiments.Fleet_study.result) =
  r.detected = r.repaired + r.stood_down + r.gave_up + r.unfinished

let fleet_checks label (r : Experiments.Fleet_study.result) =
  [
    (label ^ ".accounting", accounting r);
    (label ^ ".targets", r.targets > 0 && r.shards > 0);
  ]

(* ------------------------------------------------------------------ *)
(* fleet-day: the deployed steady state. *)

let fleet_config ~duration =
  { Fleet.Service.default_config with Fleet.Service.duration; planning = true }

let fleet_day size =
  let duration, targets = match size with Full -> (86400.0, 250) | Tiny -> (3600.0, 50) in
  let study ~duration ~jobs ~seed =
    Experiments.Fleet_study.run ~config:(fleet_config ~duration) ~targets ~jobs ~seed ()
  in
  {
    name = "fleet-day";
    ases = Fleet.Service.default_config.Fleet.Service.ases;
    setup = (fun ~seed -> ignore (study ~duration:1.0 ~jobs:1 ~seed));
    run =
      (fun ~jobs ~seed ->
        let r = study ~duration ~jobs ~seed in
        {
          digest = digest_tables (Experiments.Fleet_study.to_tables r);
          attempted = r.detected;
          trials = r.shards;
          isolations = r.detected + r.isolation_retries;
          checks = fleet_checks "fleet" r;
          fleets = [ r ];
        });
  }

(* ------------------------------------------------------------------ *)
(* faults-storm: control-plane churn at twice the default fault rates. *)

let faults_storm size =
  let duration, targets = match size with Full -> (10800.0, 100) | Tiny -> (3600.0, 25) in
  let study ~duration ~jobs ~seed =
    Experiments.Fault_study.run ~config:(fleet_config ~duration) ~intensities:[ 2.0 ] ~targets
      ~jobs ~seed ()
  in
  {
    name = "faults-storm";
    ases = Fleet.Service.default_config.Fleet.Service.ases;
    setup = (fun ~seed -> ignore (study ~duration:1.0 ~jobs:1 ~seed));
    run =
      (fun ~jobs ~seed ->
        let r = study ~duration ~jobs ~seed in
        let fleets =
          List.map (fun row -> row.Experiments.Fault_study.result) r.Experiments.Fault_study.rows
        in
        {
          digest = digest_tables (Experiments.Fault_study.to_tables r);
          attempted = List.fold_left (fun acc f -> acc + f.Experiments.Fleet_study.detected) 0 fleets;
          trials = List.fold_left (fun acc f -> acc + f.Experiments.Fleet_study.shards) 0 fleets;
          isolations =
            List.fold_left
              (fun acc f ->
                acc + f.Experiments.Fleet_study.detected + f.Experiments.Fleet_study.isolation_retries)
              0 fleets;
          checks = List.concat_map (fleet_checks "faults") fleets;
          fleets;
        });
  }

(* ------------------------------------------------------------------ *)
(* paper-batch: the paper's trial-world experiments at full sizes. *)

type paper_sizes = { ases : int; poisons : int; loss_poisons : int; feeds : int; failures : int }

let paper_sizes = function
  | Full -> { ases = 318; poisons = 25; loss_poisons = 15; feeds = 40; failures = 120 }
  | Tiny -> { ases = 100; poisons = 2; loss_poisons = 2; feeds = 2; failures = 8 }

(* Sec53_accuracy spreads its failure quota over this many share-nothing
   worlds (fewer when the quota is smaller). *)
let accuracy_shards failures = max 1 (min 8 failures)

(* One trial world the way the paper drivers build theirs: a
   control-plane-only BGP-Mux Internet with the baseline announced and
   converged. *)
let paper_world ~ases ~seed =
  let mux =
    Workloads.Scenarios.bgpmux ~ases ~infrastructure:Workloads.Scenarios.No_infrastructure ~seed
      ()
  in
  let net = mux.Workloads.Scenarios.bed.Workloads.Scenarios.net in
  Lifeguard.Remediate.announce_baseline net mux.Workloads.Scenarios.plan;
  Bgp.Network.run_until_quiet net;
  mux

let paper_batch size =
  let s = paper_sizes size in
  let open Experiments in
  {
    name = "paper-batch";
    ases = s.ases;
    (* Eight worlds, one per accuracy shard, so that one small world's
       timer noise does not set the figure. *)
    setup =
      (fun ~seed ->
        for i = 0 to 7 do
          ignore (paper_world ~ases:s.ases ~seed:(seed + i))
        done);
    run =
      (fun ~jobs ~seed ->
        let ases = s.ases in
        let fig6 = Fig6_convergence.run ~ases ~max_poisons:s.poisons ~jobs ~seed () in
        let eff = Sec51_efficacy.run ~ases ~max_poisons:s.poisons ~jobs ~seed () in
        let loss = Sec52_loss.run ~ases ~max_poisons:s.loss_poisons ~jobs ~seed () in
        let sel = Sec52_selective.run ~ases ~max_feeds:s.feeds ~jobs ~seed () in
        let acc = Sec53_accuracy.run ~ases ~failure_count:s.failures ~jobs ~seed () in
        let tables =
          Fig6_convergence.to_tables fig6 @ Sec51_efficacy.to_tables eff
          @ Sec52_loss.to_tables loss @ Sec52_selective.to_tables sel
          @ Sec53_accuracy.to_tables acc
        in
        let trials =
          (2 * fig6.Fig6_convergence.poisons)
          + eff.Sec51_efficacy.poisons_attempted + loss.Sec52_loss.poisons
          + sel.Sec52_selective.feeds_tested + accuracy_shards s.failures
        in
        let frac x = x >= 0.0 && x <= 1.0 in
        {
          digest = digest_tables tables;
          attempted = trials;
          trials;
          isolations = List.length acc.Sec53_accuracy.cases;
          checks =
            [
              ("paper.fig6.poisons", fig6.Fig6_convergence.poisons > 0);
              ( "paper.efficacy.fractions",
                frac eff.Sec51_efficacy.fraction_rerouted && frac eff.Sec51_efficacy.fraction_sim
              );
              ( "paper.loss.poisons",
                Array.length loss.Sec52_loss.loss_rates = loss.Sec52_loss.poisons );
              ( "paper.accuracy.isolated",
                acc.Sec53_accuracy.consistent <= acc.Sec53_accuracy.isolated
                && acc.Sec53_accuracy.isolated <= List.length acc.Sec53_accuracy.cases );
            ];
          fleets = [];
        });
  }

let names = [ "fleet-day"; "faults-storm"; "paper-batch" ]

let find size = function
  | "fleet-day" -> Some (fleet_day size)
  | "faults-storm" -> Some (faults_storm size)
  | "paper-batch" -> Some (paper_batch size)
  | _ -> None
