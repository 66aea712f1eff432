open Net
open Workloads

type result = {
  poisons : int;
  loss_rates : float array;
  fraction_under_1pct : float;
  fraction_under_2pct : float;
  fraction_with_bad_round : float;
  max_structural : float;
}

let paper_under_1pct = 0.60
let paper_under_2pct = 0.98
let paper_bad_round = 0.02

let loss_during_poisoning mux rng ~samplers ~target =
  let bed = mux.Scenarios.bed in
  let engine = bed.Scenarios.engine in
  let prefix = Scenarios.production_prefix in
  let production_address = Prefix.nth_address prefix 1 in
  (* Per-site ambient loss for this poisoning: log-normal around 0.3%,
     aligned with [samplers] and drawn in their order. *)
  let ambient =
    List.map
      (fun _ -> Float.min 0.03 (Prng.Dist.lognormal rng ~mu:(log 0.003) ~sigma:0.8))
      samplers
  in
  (* Verdicts through the world's reachability memo: a round in which no
     FIB and no failure changed is one table hit per sampler. *)
  let delivers vp =
    Dataplane.Probe.delivers bed.Scenarios.probe ~src:vp ~dst:production_address
  in
  let horizon = 400.0 in
  let rounds : (float * Asn.t * bool * bool) list ref = ref [] in
  let sample t0 =
    Sim.Engine.schedule_every engine ~every:10.0 ~until:(t0 +. horizon) (fun now ->
        List.iter2
          (fun vp p ->
            let delivered = delivers vp in
            let ambient_drop = Prng.bernoulli rng ~p in
            rounds := (now, vp, delivered, ambient_drop) :: !rounds)
          samplers ambient;
        `Continue)
  in
  let { Poisoning.t0; _ } = Poisoning.round mux ~settle:120.0 ~target ~sample in
  Sim.Engine.run ~until:(t0 +. horizon +. 1.0) engine;
  let reports =
    Bgp.Convergence.analyze mux.Scenarios.collector ~event_time:t0 ~prefix
      ~affected:(fun _ -> false)
  in
  let t_converged =
    match Bgp.Convergence.global_convergence_time reports with
    | Some span when span > 0.0 ->
        List.fold_left
          (fun acc r -> Float.max acc r.Bgp.Convergence.last_update)
          t0 reports
    | Some _ | None -> t0 +. 30.0
  in
  (* Sites completely cut off by this poisoning are excluded, as in the
     paper. *)
  let live = List.filter delivers samplers in
  let live_set = List.fold_left (fun s vp -> Asn.Set.add vp s) Asn.Set.empty live in
  let in_window =
    List.filter
      (fun (time, vp, _, _) ->
        time >= t0 && time <= t_converged +. 20.0 && Asn.Set.mem vp live_set)
      !rounds
  in
  let total = List.length in_window in
  let count pred = List.length (List.filter pred in_window) in
  let lost_struct = count (fun (_, _, delivered, _) -> not delivered) in
  let lost_any = count (fun (_, _, delivered, ambient) -> (not delivered) || ambient) in
  let rate n = if total = 0 then 0.0 else float_of_int n /. float_of_int total in
  (* Any single 10 s round with > 10% loss? *)
  let by_round = Hashtbl.create 64 in
  List.iter
    (fun (time, _, delivered, ambient) ->
      let key = int_of_float (time /. 10.0) in
      let lost0, total0 = Option.value ~default:(0, 0) (Hashtbl.find_opt by_round key) in
      let lost0 = if (not delivered) || ambient then lost0 + 1 else lost0 in
      Hashtbl.replace by_round key (lost0, total0 + 1))
    in_window;
  let bad_round =
    Hashtbl.fold
      (fun _ (l, t) acc -> acc || (t >= 10 && float_of_int l /. float_of_int t > 0.10))
      by_round false
  in
  (rate lost_any, rate lost_struct, bad_round)

(* Probing here targets only the production prefix (announced by the
   origin), so worlds need no infrastructure prefixes at all. Routers
   take a few seconds to push loc-RIB changes into their FIBs; that
   window is where structural convergence loss lives. *)
let fib_install_delay = 6.0

let run ~ases ~max_poisons ~jobs ~seed () =
  (* Scout world: harvest the poisoning targets. *)
  let targets =
    let mux = Poisoning.mux ~ases ~fib_install_delay ~seed () in
    Poisoning.converge_baseline mux;
    Poisoning.targets mux ~rng:(Prng.create ~seed:(seed + 3)) ~n:max_poisons
  in
  (* Every poisoning forks the world with the prepended baseline
     converged and draws from its own PRNG keyed on (seed, trial index):
     trials share nothing and their outcomes don't depend on [jobs] or on
     each other. *)
  let template =
    Poisoning.template ~ases ~fib_install_delay ~seed
      ~baseline:(fun origin -> Bgp.As_path.prepended ~origin ~copies:3)
      ()
  in
  let trial idx target () =
    let mux = Template.fork template in
    let rng = Prng.create ~seed:(seed + 3 + (1009 * (idx + 1))) in
    (* The paper sampled ~300 PlanetLab sites; we sample every stub edge
       network in the topology. *)
    let samplers =
      match mux.Scenarios.bed.Scenarios.gen with
      | Some gen -> gen.Topology.Topo_gen.stub_list
      | None -> mux.Scenarios.bed.Scenarios.vantage_points
    in
    loss_during_poisoning mux rng ~samplers ~target
  in
  let outcomes = Runner.run_trials ~jobs (List.mapi trial targets) in
  let loss_rates = Array.of_list (List.map (fun (a, _, _) -> a) outcomes) in
  let frac pred = Stats.Descriptive.fraction pred loss_rates in
  {
    poisons = List.length targets;
    loss_rates;
    fraction_under_1pct = frac (fun l -> l < 0.01);
    fraction_under_2pct = frac (fun l -> l < 0.02);
    fraction_with_bad_round =
      Stats.Descriptive.fraction_list (fun (_, _, bad) -> bad) outcomes;
    (* Rates are non-negative, so 0 is also the empty case's value. *)
    max_structural = List.fold_left (fun acc (_, s, _) -> Float.max acc s) 0.0 outcomes;
  }

let to_tables r =
  let t =
    Stats.Table.create ~title:"Sec 5.2 loss during convergence (paper vs measured)"
      ~columns:[ "metric"; "paper"; "measured" ]
  in
  Stats.Table.add_rows t
    [
      [ "poisonings sampled"; "-"; Stats.Table.cell_int r.poisons ];
      [
        "loss < 1% of rounds";
        Stats.Table.cell_pct paper_under_1pct;
        Stats.Table.cell_pct r.fraction_under_1pct;
      ];
      [
        "loss < 2%";
        Stats.Table.cell_pct paper_under_2pct;
        Stats.Table.cell_pct r.fraction_under_2pct;
      ];
      [
        "any 10s round with >10% loss";
        Stats.Table.cell_pct paper_bad_round;
        Stats.Table.cell_pct r.fraction_with_bad_round;
      ];
      [
        "max convergence-attributable (structural) loss";
        "(not separable in the paper)";
        Stats.Table.cell_pct ~decimals:2 r.max_structural;
      ];
    ];
  [ t ]
