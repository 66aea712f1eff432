open Net
open Workloads

let mux ?mrai ?fib_install_delay ~ases ~seed () =
  Scenarios.bgpmux ~ases ?mrai ?fib_install_delay ~infrastructure:Scenarios.No_infrastructure
    ~seed ()

let converge_baseline mux =
  let net = mux.Scenarios.bed.Scenarios.net in
  Lifeguard.Remediate.announce_baseline net mux.Scenarios.plan;
  Bgp.Network.run_until_quiet net

let targets mux ~rng ~n =
  let arr = Array.of_list (Scenarios.harvest_on_path_ases mux) in
  Prng.shuffle rng arr;
  Array.to_list (Array.sub arr 0 (min n (Array.length arr)))

type round = { t0 : float; affected : Asn.t -> bool }

let announce mux path =
  let net = mux.Scenarios.bed.Scenarios.net in
  Bgp.Network.announce net ~origin:mux.Scenarios.origin ~prefix:Scenarios.production_prefix
    ~per_neighbor:(fun _ -> Some path)
    ();
  Bgp.Network.run_until_quiet net

let template ?fib_install_delay ~ases ~seed ~baseline () =
  let mux = mux ?fib_install_delay ~ases ~seed () in
  announce mux (baseline mux.Scenarios.origin);
  Template.capture mux

let round mux ~settle ~target ~sample =
  let bed = mux.Scenarios.bed in
  let origin = mux.Scenarios.origin in
  Scenarios.settle bed ~seconds:settle;
  let affected =
    List.fold_left
      (fun acc peer ->
        match Bgp.Network.best_route bed.Scenarios.net peer Scenarios.production_prefix with
        | Some entry
          when Bgp.As_path.traverses ~origin ~target entry.Bgp.Route.ann.Bgp.Route.path ->
            Asn.Set.add peer acc
        | Some _ | None -> acc)
      Asn.Set.empty mux.Scenarios.feeds
  in
  Bgp.Network.Collector.clear mux.Scenarios.collector;
  let t0 = Sim.Engine.now bed.Scenarios.engine in
  sample t0;
  announce mux (Bgp.As_path.poisoned ~origin ~poison:target);
  { t0; affected = (fun peer -> Asn.Set.mem peer affected) }
