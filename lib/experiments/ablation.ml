open Net
open Workloads

type row = {
  label : string;
  instant_unaffected : float;
  mean_updates : float;
  global_median : float;
  structural_loss : float;
}

type result = { rows : row list }

let production = Scenarios.production_prefix

(* One configuration: build a fresh mux world and poison [n] targets,
   measuring convergence and data-plane loss. Data-plane sampling only
   targets the production prefix, so the world needs no infrastructure
   prefixes. *)
let measure ~label ~seed ~ases ~n ~mrai ~fib_install_delay ~prepend =
  let mux = Poisoning.mux ~ases ~mrai ~fib_install_delay ~seed () in
  let bed = mux.Scenarios.bed in
  let engine = bed.Scenarios.engine in
  let origin = mux.Scenarios.origin in
  let baseline =
    if prepend then Bgp.As_path.prepended ~origin ~copies:3
    else Bgp.As_path.plain ~origin
  in
  Poisoning.announce mux baseline;
  let targets = Poisoning.targets mux ~rng:(Prng.create ~seed:(seed + 9)) ~n in
  let samplers = bed.Scenarios.vantage_points in
  let instants = ref [] and updates = ref [] and globals = ref [] and losses = ref [] in
  List.iter
    (fun target ->
      (* Sample the data plane every 2 s through convergence. *)
      let lost = ref 0 and total = ref 0 in
      let sample t0 =
        Sim.Engine.schedule_every engine ~every:2.0 ~until:(t0 +. 120.0) (fun _ ->
            List.iter
              (fun vp ->
                incr total;
                if
                  not
                    (Dataplane.Probe.delivers bed.Scenarios.probe ~src:vp
                       ~dst:(Prefix.nth_address production 1))
                then incr lost)
              samplers;
            `Continue)
      in
      (* One world serves every target, so each round first restores the
         baseline the previous poison replaced. *)
      Poisoning.announce mux baseline;
      let round = Poisoning.round mux ~settle:((2.0 *. mrai) +. 60.0) ~target ~sample in
      Sim.Engine.run ~until:(round.Poisoning.t0 +. 121.0) engine;
      let reports =
        Bgp.Convergence.analyze mux.Scenarios.collector ~event_time:round.Poisoning.t0
          ~prefix:production ~affected:round.Poisoning.affected
        |> List.filter (fun r -> r.Bgp.Convergence.has_final_route)
      in
      let unaffected = List.filter (fun r -> not r.Bgp.Convergence.affected) reports in
      if unaffected <> [] then
        instants := Bgp.Convergence.fraction_instant unaffected :: !instants;
      if reports <> [] then updates := Bgp.Convergence.mean_updates reports :: !updates;
      (match Bgp.Convergence.global_convergence_time reports with
      | Some g -> globals := g :: !globals
      | None -> ());
      if !total > 0 then
        losses := (float_of_int !lost /. float_of_int !total) :: !losses)
    targets;
  let mean l = if l = [] then 0.0 else Stats.Descriptive.mean (Array.of_list l) in
  let median l = if l = [] then 0.0 else Stats.Descriptive.median (Array.of_list l) in
  {
    label;
    instant_unaffected = mean !instants;
    mean_updates = mean !updates;
    global_median = median !globals;
    structural_loss = mean !losses;
  }

let run ~ases ~poisons ~jobs ~seed () =
  (* [measure] already builds a fresh world per configuration, so each
     row is an independent trial for the pool. *)
  let m ~label ~mrai ~fib_install_delay ~prepend () =
    measure ~label ~seed ~ases ~n:poisons ~mrai ~fib_install_delay ~prepend
  in
  let rows =
    Runner.run_trials ~jobs
      [
        m ~label:"baseline: prepend, MRAI 30, FIB instant" ~mrai:30.0 ~fib_install_delay:0.0
          ~prepend:true;
        m ~label:"no prepending" ~mrai:30.0 ~fib_install_delay:0.0 ~prepend:false;
        m ~label:"MRAI 15 s" ~mrai:15.0 ~fib_install_delay:0.0 ~prepend:true;
        m ~label:"MRAI 5 s" ~mrai:5.0 ~fib_install_delay:0.0 ~prepend:true;
        m ~label:"FIB install lag 6 s" ~mrai:30.0 ~fib_install_delay:6.0 ~prepend:true;
        m ~label:"no prepend + FIB lag 6 s" ~mrai:30.0 ~fib_install_delay:6.0 ~prepend:false;
      ]
  in
  { rows }

let to_tables r =
  let t =
    Stats.Table.create ~title:"Ablation: prepending, MRAI, FIB install latency"
      ~columns:
        [ "configuration"; "instant (unaffected)"; "updates/peer"; "global median (s)"; "loss" ]
  in
  List.iter
    (fun row ->
      Stats.Table.add_row t
        [
          row.label;
          Stats.Table.cell_pct row.instant_unaffected;
          Stats.Table.cell_float row.mean_updates;
          Stats.Table.cell_float ~decimals:0 row.global_median;
          Stats.Table.cell_pct ~decimals:2 row.structural_loss;
        ])
    r.rows;
  [ t ]
