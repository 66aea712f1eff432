(* The per-layer profile (--trace 1), timed from outside the library.

   Four passes of the workload itself: jobs 1 with metrics off (the
   wall-clock the estimates divide by, and GC counts), then, with the
   calibration kernel running so that the ratios between them do not
   follow the host's drift, jobs 1 and jobs 2 with metrics off (the
   speed-up) and jobs 1 with metrics on (every count, from
   Obs.Metrics.snapshot, and the metrics overhead). All four must render
   the same tables.

   Then unit costs: spans recorded around calls into each layer's public
   functions, on a world built like the workload's, with metrics off.
   count x unit cost / wall gives each layer's estimated share of the
   workload's wall-clock. Unit costs are self costs where a lower layer's
   work is known: an isolation's cost excludes its probes (floored at
   zero), a BGP update's excludes its engine dispatches, so the shares
   do not overlap. *)

open Net

(* Every probe below records several spans of one name and reports the
   median, so that one slow slice (another process on the core) does not
   set the figure. *)
let span = Meter.span
let per_op = Meter.per_op

(* ------------------------------------------------------------------ *)
(* sim: dispatch of no-op events at a given queue depth. *)

let sim_dispatch ~depth =
  let e = Sim.Engine.create () in
  let depth = max 1 depth in
  let rng = Prng.create ~seed:7 in
  let noop () = () in
  for _ = 1 to depth do
    Sim.Engine.schedule e ~at:(Prng.float rng *. 100.0) noop
  done;
  let steps = 20_000 in
  for _ = 1 to 7 do
    span "sim.dispatch" ~count:steps (fun () ->
        for _ = 1 to steps do
          ignore (Sim.Engine.step e);
          Sim.Engine.schedule_after e ~delay:(Prng.float rng *. 100.0) noop
        done)
  done;
  fst (per_op "sim.dispatch")

(* ------------------------------------------------------------------ *)
(* bgp: cold convergence, link flap and poison on the workload's world. *)

let mux ?shards ~ases ~seed () =
  Workloads.Scenarios.bgpmux ~ases ~infrastructure:Workloads.Scenarios.No_infrastructure ?shards
    ~seed ()

let net_of m = m.Workloads.Scenarios.bed.Workloads.Scenarios.net

(* Engine events and deliveries of one baseline convergence, counted by
   the library's own metrics (deterministic, so one counted run serves
   every timed one). *)
let converge_counts ~ases ~seed =
  let m = mux ~ases ~seed () in
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Lifeguard.Remediate.announce_baseline (net_of m) m.Workloads.Scenarios.plan;
  Bgp.Network.run_until_quiet (net_of m);
  let snap = Obs.Metrics.snapshot () in
  Obs.Metrics.disable ();
  Obs.Metrics.reset ();
  (Obs.Metrics.counter_value snap "sim.events", Obs.Metrics.counter_value snap "bgp.delivered")

let bgp_costs ~ases ~seed =
  for i = 0 to 4 do
    let m = span "world.build" ~count:1 (fun () -> mux ~ases ~seed:(seed + i) ()) in
    let net = net_of m in
    let plan = m.Workloads.Scenarios.plan in
    let before = Bgp.Network.message_count net in
    Meter.span_counted "bgp.converge" (fun () ->
        Lifeguard.Remediate.announce_baseline net plan;
        Bgp.Network.run_until_quiet net;
        Bgp.Network.message_count net - before);
    let origin = m.Workloads.Scenarios.origin in
    (match m.Workloads.Scenarios.providers with
    | provider :: _ ->
        span "bgp.flap" ~count:1 (fun () ->
            Bgp.Network.fail_link net ~a:origin ~b:provider;
            Bgp.Network.run_until_quiet net;
            Bgp.Network.restore_link net ~a:origin ~b:provider;
            Bgp.Network.run_until_quiet net)
    | [] -> ());
    Workloads.Scenarios.settle m.Workloads.Scenarios.bed ~seconds:120.0;
    match Workloads.Scenarios.harvest_on_path_ases m with
    | target :: _ ->
        span "bgp.poison" ~count:1 (fun () ->
            Lifeguard.Remediate.poison net plan ~target;
            Bgp.Network.run_until_quiet net)
    | [] -> ()
  done;
  let events, delivered = converge_counts ~ases ~seed in
  let us, words = per_op "bgp.converge" in
  let events_per_update = float_of_int events /. float_of_int (max 1 delivered) in
  ( us,
    words,
    events_per_update,
    fst (per_op "bgp.flap"),
    fst (per_op "bgp.poison"),
    fst (per_op "world.build") )

(* shard: the same baseline convergence at 1 and 2 shards, over the
   legacy single-queue engine, on the fleet's 150-AS world. *)
let shard_costs ~seed =
  let converge label shards =
    List.init 3 (fun i ->
        let m = mux ?shards ~ases:150 ~seed:(seed + i) () in
        let net = net_of m in
        span label ~count:1 (fun () ->
            Lifeguard.Remediate.announce_baseline net m.Workloads.Scenarios.plan;
            Bgp.Network.run_until_quiet net);
        net)
  in
  ignore (converge "shard.legacy" None);
  ignore (converge "shard.k1" (Some 1));
  let net = List.hd (converge "shard.k2" (Some 2)) in
  let t name = fst (per_op name) in
  ( t "shard.k1" /. t "shard.legacy",
    t "shard.k2" /. t "shard.legacy",
    Bgp.Network.barrier_count net,
    Bgp.Network.cut_message_count net )

(* ------------------------------------------------------------------ *)
(* dataplane, measurement, core: probes and isolations between the
   endpoints the workload probes, on a world built like the workload's. *)

type probe_world = {
  bed : Workloads.Scenarios.testbed;
  srcs : Asn.t list;  (** Where probes and isolations start. *)
  dsts : Asn.t list;  (** What they target. *)
  ctx : Lifeguard.Isolation.context;
  toward_src : Prefix.t option;  (** Reverse-failure scope, as the workload places them. *)
}

let isolation_ctx (bed : Workloads.Scenarios.testbed) ~vps ~overrides =
  {
    Lifeguard.Isolation.env = bed.Workloads.Scenarios.probe;
    atlas = Measurement.Atlas.create ();
    responsiveness = Measurement.Responsiveness.create ();
    vantage_points = vps;
    source_overrides = overrides;
  }

(* The fleet's world: the origin monitors sampled stub targets from its
   production prefix, and outages are placed toward its sentinel. *)
let fleet_world ~seed =
  let open Workloads.Scenarios in
  let m = mux ~ases:Fleet.Service.default_config.Fleet.Service.ases ~seed () in
  let bed = m.bed and origin = m.origin in
  let vps = bed.vantage_points in
  let pool =
    match bed.gen with
    | Some gen ->
        List.filter
          (fun a -> not (List.exists (Asn.equal a) (origin :: vps)))
          gen.Topology.Topo_gen.stub_list
    | None -> []
  in
  let count = min Fleet.Service.default_config.Fleet.Service.target_count (List.length pool) in
  let targets =
    Array.to_list
      (Prng.sample_without_replacement (Prng.create ~seed:(seed + 1013)) count
         (Array.of_list pool))
  in
  Dataplane.Forward.announce_infrastructure_for bed.net ((origin :: vps) @ targets);
  Lifeguard.Remediate.announce_baseline bed.net m.plan;
  Bgp.Network.run_until_quiet ~timeout:36000.0 bed.net;
  let source = Prefix.nth_address m.plan.Lifeguard.Remediate.production 1 in
  ({
    bed;
    srcs = [ origin ];
    dsts = targets;
    ctx = isolation_ctx bed ~vps ~overrides:[ (origin, source) ];
    toward_src = Some sentinel_prefix;
  }
    : probe_world)

(* The accuracy experiment's world: half the PlanetLab sites probe the
   other half. *)
let planetlab_world ~ases ~seed =
  let open Workloads.Scenarios in
  let bed = planetlab ~ases ~sites:24 ~infrastructure:Sites ~seed () in
  let sites = Array.of_list bed.vantage_points in
  let n = Array.length sites in
  let vps = Array.to_list (Array.sub sites 0 (n / 2)) in
  ({
    bed;
    srcs = vps;
    dsts = Array.to_list (Array.sub sites (n / 2) (n - (n / 2)));
    ctx = isolation_ctx bed ~vps ~overrides:[];
    toward_src = None;
  }
    : probe_world)

type probe_costs = {
  walk_ns : float;
  words_per_walk : float;
  ping_ns : float;
  atlas_refresh_ms : float;
  isolate_ms : float;
  isolate_probes : float;
  decide_us : float;
}

let probe_costs (pw : probe_world) ~seed =
  let open Workloads.Scenarios in
  let bed = pw.bed and ctx = pw.ctx in
  let net = bed.net in
  let pairs =
    Array.of_list
      (List.concat_map
         (fun s ->
           List.map
             (fun d -> (s, Lifeguard.Isolation.source_of ctx s, Dataplane.Forward.probe_address net d))
             pw.dsts)
         pw.srcs)
  in
  let reps = 50_000 in
  for _ = 1 to 5 do
    span "dataplane.walk" ~count:reps (fun () ->
        for i = 0 to reps - 1 do
          let src, _, dst = pairs.(i mod Array.length pairs) in
          ignore (Dataplane.Forward.delivers net bed.failures ~src ~dst)
        done);
    span "dataplane.ping" ~count:reps (fun () ->
        for i = 0 to reps - 1 do
          let src, src_ip, dst = pairs.(i mod Array.length pairs) in
          ignore (Dataplane.Probe.ping_from bed.probe ~src ~src_ip ~dst)
        done)
  done;
  for k = 1 to 3 do
    span "meas.atlas_refresh" ~count:(Array.length pairs) (fun () ->
        Measurement.Atlas.refresh_all ctx.Lifeguard.Isolation.atlas bed.probe ~vps:pw.srcs
          ~dsts:pw.dsts ~now:(float_of_int k))
  done;
  (* Isolations of failures placed on the live path, the accuracy
     experiment's loop. *)
  let rng = Prng.create ~seed:(seed + 5) in
  let probes = ref [] and diagnoses = ref [] and attempts = ref 0 in
  while List.length !diagnoses < 24 && !attempts < 200 do
    incr attempts;
    let src = Prng.pick_list rng pw.srcs in
    let dst = Prng.pick_list rng pw.dsts in
    let shape = Workloads.Outage_gen.shape rng in
    match Placement.on_path rng bed ?toward_src:pw.toward_src ~src ~dst ~shape () with
    | None -> ()
    | Some placed ->
        Dataplane.Failure.inject net bed.failures placed.Placement.spec;
        let d = span "core.isolate" ~count:1 (fun () -> Lifeguard.Isolation.isolate ctx ~src ~dst) in
        Dataplane.Failure.heal net bed.failures placed.Placement.spec;
        probes := float_of_int d.Lifeguard.Isolation.probes_used :: !probes;
        diagnoses := d :: !diagnoses
  done;
  let decide () =
    List.iter
      (fun (d : Lifeguard.Isolation.diagnosis) ->
        ignore
          (Lifeguard.Decide.decide Lifeguard.Decide.default_config bed.graph ~origin:d.src
             ~diagnosis:d ~outage_age:3600.0))
      !diagnoses
  in
  for _ = 1 to 5 do
    span "core.decide" ~count:(List.length !diagnoses) decide
  done;
  let walk_s, words = per_op "dataplane.walk" in
  {
    walk_ns = walk_s *. 1e9;
    words_per_walk = words;
    ping_ns = fst (per_op "dataplane.ping") *. 1e9;
    atlas_refresh_ms = fst (per_op "meas.atlas_refresh") *. 1e3;
    isolate_ms = fst (per_op "core.isolate") *. 1e3;
    isolate_probes = Meter.median !probes;
    decide_us = fst (per_op "core.decide") *. 1e6;
  }

(* ------------------------------------------------------------------ *)
(* plan: the offline planner and cache lookups on a fleet-style world. *)

let diagnosis ~src ~dst ~blamed =
  {
    Lifeguard.Isolation.src;
    dst;
    direction = Lifeguard.Isolation.Reverse_failure;
    blame = Lifeguard.Isolation.Blamed_as blamed;
    suspects = [];
    working_path = None;
    traceroute_blame = None;
    probes_used = 0;
    elapsed = 0.0;
  }

let plan_costs ~ases ~seed ~targets:count =
  let m = mux ~ases ~seed () in
  let net = net_of m in
  let origin = m.Workloads.Scenarios.origin in
  let graph = Bgp.Network.graph net in
  let paths = Bgp.Network.path_store net in
  let stubs =
    match m.Workloads.Scenarios.bed.Workloads.Scenarios.gen with
    | Some gen -> List.filter (fun a -> not (Asn.equal a origin)) gen.Topology.Topo_gen.stub_list
    | None -> []
  in
  let targets = List.filteri (fun i _ -> i < count) stubs in
  let build () =
    Plan.Planner.build ~graph ~store:paths ~plan:m.Workloads.Scenarios.plan ~targets
  in
  for _ = 1 to 3 do
    span "plan.build" ~count:1 (fun () -> ignore (build ()))
  done;
  let cache =
    Plan.Cache.create ~seed:(build ()) ~config:Lifeguard.Decide.default_config ~origin ~paths ()
  in
  (* Every candidate blame of every target (hits, when the planner
     enumerated that class) plus the target itself blamed (a miss, which
     the cache demand-plans). *)
  let lookups =
    List.concat_map
      (fun target ->
        List.map
          (fun blamed -> (target, diagnosis ~src:origin ~dst:target ~blamed))
          (Plan.Planner.candidate_blames graph ~origin ~target @ [ target ]))
      targets
  in
  for _ = 1 to 3 do
    span "plan.lookup" ~count:(List.length lookups) (fun () ->
        List.iter
          (fun (target, diagnosis) ->
            ignore
              (Plan.Cache.lookup cache graph ~now:0.0 ~target ~diagnosis ~outage_age:3600.0
                 ~breaker_open:(fun _ -> false)))
          lookups)
  done;
  (fst (per_op "plan.build") *. 1e3, fst (per_op "plan.lookup") *. 1e6)

(* ------------------------------------------------------------------ *)
(* recover: journal appends, and crash-and-resume of one durable
   fleet-day world (25 targets, one simulated day). *)

let recover_costs ~seed =
  let n = 20_000 in
  for _ = 1 to 5 do
    let j = Recover.Journal.create () in
    span "recover.append" ~count:n (fun () ->
        for i = 1 to n do
          Recover.Journal.logged j ~at:(float_of_int i)
            (Recover.Record.Outcome
               { target = Asn.of_int 64512; kind = Recover.Record.Stood_down; reason = "bench" })
            ~effect:ignore
        done)
  done;
  let config = Workload.fleet_config ~duration:86400.0 in
  let snapshot_every = config.Fleet.Service.duration /. 4.0 in
  let last = ref None in
  let kb, resume_s =
    match
      Fleet.Service.run_durable ~config ~seed ~snapshot_every
        ~snapshot_sink:(fun s -> last := Some s)
        ()
    with
    | Fleet.Service.Interrupted _ -> (0.0, 0.0)
    | Fleet.Service.Finished { recovery; _ } -> (
        let kb =
          match !last with
          | Some s -> float_of_int (String.length (Recover.Snapshot.render s)) /. 1024.0
          | None -> 0.0
        in
        let lines = List.length recovery.Fleet.Service.rc_journal in
        let crash = { Recover.Crash.boundary = Recover.Crash.After_write; append = max 1 (lines / 2) } in
        match Fleet.Service.run_durable ~config ~seed ~crash ~snapshot_every () with
        | Fleet.Service.Finished _ -> (kb, 0.0)
        | Fleet.Service.Interrupted { journal; snapshot; _ } ->
            let t0 = Meter.now () in
            ignore (Fleet.Service.run_durable ~config ~seed ~journal ?snapshot ~snapshot_every ());
            (kb, Meter.now () -. t0))
  in
  (fst (per_op "recover.append") *. 1e6, kb, resume_s)

(* fleet: one budget admission; par: one empty trial through the pool. *)
let budget_admit_ns () =
  let n = 200_000 in
  for _ = 1 to 5 do
    let sched =
      Fleet.Budget.scheduler ~global:(Fleet.Budget.create ~rate:4.0 ~burst:120.0 ()) ()
    in
    let vp = Asn.of_int 64512 in
    span "fleet.budget_admit" ~count:n (fun () ->
        for i = 1 to n do
          ignore (Fleet.Budget.admit_vp sched ~vp ~now:(float_of_int i *. 0.1) ~cost:1)
        done)
  done;
  fst (per_op "fleet.budget_admit") *. 1e9

let trial_overhead_us () =
  let n = 2_000 in
  for _ = 1 to 5 do
    span "par.trial" ~count:n (fun () ->
        ignore (Experiments.Runner.run_trials ~jobs:2 (List.init n (fun _ () -> ()))))
  done;
  fst (per_op "par.trial") *. 1e6

(* ------------------------------------------------------------------ *)

type pass = {
  outcome : Workload.outcome;
  wall : float;
  scaled : float;  (** Wall less the kernels' time, scaled as in Calib; [wall] when unsampled. *)
  minor_words : float;
  majors : int;
}

let run_pass ?(sampled = false) (w : Workload.t) ~jobs ~seed =
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let t0 = Meter.now () in
  let run () = w.run ~jobs ~seed in
  let outcome, kernels = if sampled then Calib.sample run else (run (), []) in
  let wall = Meter.now () -. t0 in
  let g1 = Gc.quick_stat () in
  {
    outcome;
    wall;
    scaled = (wall -. Calib.busy kernels) *. Calib.scale kernels;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    majors = g1.Gc.major_collections - g0.Gc.major_collections;
  }

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let profile ~seed ~inject_mismatch (w : Workload.t) gate =
  let p1 = run_pass w ~jobs:1 ~seed in
  let ps = run_pass ~sampled:true w ~jobs:1 ~seed in
  let p2 = run_pass ~sampled:true w ~jobs:2 ~seed in
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let pm = run_pass ~sampled:true w ~jobs:1 ~seed in
  let snap = Obs.Metrics.snapshot () in
  Obs.Metrics.disable ();
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter_value snap in
  let gauge name = Option.value ~default:0 (List.assoc_opt name snap.Obs.Metrics.gauges) in
  (* The gate: the jobs-2 pass and the metrics-on pass render exactly the
     jobs-1 passes' tables. On paper-batch the runner's trial counter must
     also match the trials the drivers' results account for (the fleet
     studies' counters are copied from their reports, so a check there
     would compare a value with itself). *)
  let check = Gate.check gate in
  let d1 = p1.outcome.digest in
  Gate.same_digests ~mismatch:inject_mismatch gate "digest.jobs"
    [ d1; ps.outcome.digest; p2.outcome.digest ];
  Gate.same_digests gate "digest.metrics" [ d1; pm.outcome.digest ];
  List.iter (fun p -> Gate.outcome_checks gate p.outcome) [ p1; ps; p2; pm ];
  let o = pm.outcome in
  if o.fleets = [] then check "count.trials" (c "runner.trials" = o.trials);
  let fleet_sum f = List.fold_left (fun acc r -> acc + f r) 0 o.fleets in
  (* Counts. *)
  let events = c "sim.events" and delivered = c "bgp.delivered" in
  let hits = c "plan.hits" and misses = c "plan.misses" in
  let granted = fleet_sum (fun r -> r.Experiments.Fleet_study.budget_granted) in
  let denied = fleet_sum (fun r -> r.Experiments.Fleet_study.budget_denied) in
  let atlas_hit = c "meas.atlas.hit" and atlas_miss = c "meas.atlas.miss" in
  let withdraws = c "bgp.updates.withdraw" in
  (* Unit costs. *)
  let dispatch_ns = sim_dispatch ~depth:(gauge "sim.queue_depth") *. 1e9 in
  let bgp_s, bgp_words, events_per_update, flap_s, poison_s, build_s =
    bgp_costs ~ases:w.ases ~seed
  in
  let k1, k2, barriers, cut = shard_costs ~seed in
  let pc =
    probe_costs ~seed
      (if o.fleets = [] then planetlab_world ~ases:w.ases ~seed else fleet_world ~seed)
  in
  let build_ms, lookup_us =
    plan_costs ~ases:w.ases ~seed ~targets:Fleet.Service.default_config.Fleet.Service.target_count
  in
  let append_us, snapshot_kb, resume_s = recover_costs ~seed in
  let admit_ns = budget_admit_ns () in
  let overhead_us = trial_overhead_us () in
  (* Estimates: count x self cost / wall of the jobs-1 metrics-off pass. *)
  let wall = p1.wall in
  let bgp_self_s = bgp_s -. (events_per_update *. dispatch_ns *. 1e-9) in
  let isolations = o.isolations in
  (* An isolation's probes are already in meas.probes. *)
  let isolate_self_s =
    Float.max 0.0 ((pc.isolate_ms *. 1e-3) -. (pc.isolate_probes *. pc.ping_ns *. 1e-9))
  in
  let share x = x /. wall in
  let shares =
    [
      ("est.world_share", share (float_of_int o.trials *. build_s));
      ("est.sim_share", share (float_of_int events *. dispatch_ns *. 1e-9));
      ("est.bgp_share", share (float_of_int delivered *. bgp_self_s));
      ("est.dataplane_share", share (float_of_int (c "meas.probes") *. pc.ping_ns *. 1e-9));
      ( "est.core_share",
        share
          ((float_of_int isolations *. isolate_self_s)
          +. (float_of_int misses *. pc.decide_us *. 1e-6)) );
      ( "est.plan_share",
        share
          ((float_of_int (hits + misses) *. lookup_us *. 1e-6)
          +. (if o.fleets = [] then 0.0 else float_of_int o.trials *. build_ms *. 1e-3)) );
      ("est.fleet_share", share (float_of_int (granted + denied) *. admit_ns *. 1e-9));
      ("est.par_share", share (float_of_int o.trials *. overhead_us *. 1e-6));
    ]
  in
  let coverage = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 shares in
  let count name v = (name, float_of_int v, "count") in
  ( 4 * max 1 o.attempted,
    [
      ("world.build_ms", build_s *. 1e3, "ms");
      count "sim.events" events;
      count "sim.queue_depth_max" (gauge "sim.queue_depth");
      ("sim.dispatch_ns", dispatch_ns, "ns");
      count "bgp.delivered" delivered;
      ("bgp.decisions_per_update", ratio (c "bgp.decisions") delivered, "ratio");
      ("bgp.updates_per_mrai_round", ratio delivered (c "bgp.mrai_rounds"), "ratio");
      ("bgp.withdraw_share", ratio withdraws (withdraws + c "bgp.updates.announce"), "ratio");
      ("bgp.us_per_update", bgp_s *. 1e6, "us");
      ("bgp.words_per_update", bgp_words, "words");
      ("bgp.flap_ms", flap_s *. 1e3, "ms");
      ("bgp.poison_ms", poison_s *. 1e3, "ms");
      ("shard.k1_ratio", k1, "ratio");
      ("shard.k2_ratio", k2, "ratio");
      count "shard.barriers" barriers;
      count "shard.cut_msgs" cut;
      ("dataplane.walk_ns", pc.walk_ns, "ns");
      ("dataplane.ping_ns", pc.ping_ns, "ns");
      ("dataplane.words_per_walk", pc.words_per_walk, "words");
      count "meas.probes" (c "meas.probes");
      count "meas.monitor_pairs" (c "fleet.monitor.pairs");
      ("meas.atlas_hit_rate", ratio atlas_hit (atlas_hit + atlas_miss), "ratio");
      ("meas.atlas_refresh_ms", pc.atlas_refresh_ms, "ms");
      ("core.isolate_ms", pc.isolate_ms, "ms");
      ("core.isolate_probes", pc.isolate_probes, "count");
      ("core.decide_us", pc.decide_us, "us");
      count "fleet.isolation_retries" (c "fleet.isolation.retries");
      ("fleet.budget_admit_ns", admit_ns, "ns");
      ("fleet.budget_denied_share", ratio denied (granted + denied), "ratio");
      ("plan.build_ms", build_ms, "ms");
      ("plan.lookup_us", lookup_us, "us");
      ("plan.hit_rate", ratio hits (hits + misses), "ratio");
      count "plan.invalidations" (c "plan.invalidations");
      ("recover.append_us", append_us, "us");
      ("recover.snapshot_kb", snapshot_kb, "KiB");
      ("recover.resume_s", resume_s, "s");
      count "par.trials" (c "runner.trials");
      ("par.trial_overhead_us", overhead_us, "us");
      ("par.speedup", ps.scaled /. p2.scaled, "ratio");
      ("gc.minor_mwords", p1.minor_words /. 1e6, "Mwords");
      count "gc.major_collections" p1.majors;
      ("obs.overhead", pm.scaled /. ps.scaled, "ratio");
    ]
    @ List.map (fun (n, v) -> (n, v, "ratio")) shares
    @ [ ("est.coverage", coverage, "ratio") ] )
