open Net
open Workloads

(* Per-run totals recorded at teardown, merged across domains by Obs
   when trials run in parallel. Every other count is a [report] field. *)
let m_monitor_pairs = Obs.Metrics.counter "fleet.monitor.pairs"
let m_isolation_retries = Obs.Metrics.counter "fleet.isolation.retries"

type config = {
  ases : int;
  target_count : int;
  duration : float;
  outages_per_day : float;
  chaos : Chaos.config;
  faults : Bgp.Faults.config;
  planning : bool;
      (** Precompute remediation plans offline and consult the plan cache
          before every fresh decision (default false: every remediation
          is computed when it is needed). *)
  decision_latency : float;
      (** Modeled cost of a fresh decision (simulated seconds); plan hits
          skip it. Default 0. *)
}

let default_config =
  {
    ases = 150;
    target_count = 25;
    duration = 86400.0;
    outages_per_day = 12.0;
    chaos = Chaos.none;
    faults = Bgp.Faults.none;
    planning = false;
    decision_latency = 0.0;
  }

(* The deployment's fixed operating point (see the interface). The
   announcement spacing is the paper's ~90 min damping margin. *)
let atlas_refresh_interval = 3600.0
let probe_rate = 8.0
let probe_burst = 400.0
let isolation_cost = 35
let announce_spacing = 5400.0

type report = {
  days : float;
  injected : int;
  drawn : int;
  unplaceable : int;
  detected : int;
  repaired : int;
  stood_down : int;
  gave_up : int;
  unfinished : int;
  poisons : int;
  unpoisons : int;
  time_to_repair : float list;
  time_to_confirm : float list;
  monitor_pairs : int;
  monitor_skipped : int;
  probes_sent : int;
  budget_granted : int;
  budget_denied : int;
  isolation_retries : int;
  vp_crashes : int;
  lost_probes : int;
  stale_refreshes : int;
  collector_updates : int;
  injected_ge15 : int;
  injected_h15 : float;
  measured_updates_per_day : float;
  predicted_updates_per_day : float;
  reannounced : int;
  rolled_back : int;
  breaker_trips : int;
  session_flaps : int;
  link_failures : int;
  router_crashes : int;
  updates_dropped : int;
  updates_duplicated : int;
  plan_hits : int;
  plan_misses : int;
  plan_invalidations : int;
  plan_demotions : int;
}

(* Predicted daily update load, per the paper's Table 2 model with i = t
   = 1 (this deployment handles every outage it detects, toward every
   target): the anchor is the run's own injected rate of outages >= 15
   min scaled to the poisonable-direction share (Hubble's H counts
   poisonable outages only), d is the age an outage must actually reach
   before the poison goes out — the decision gate plus the detection lag
   — and each remediated outage costs two announcements (poison +
   unpoison). *)
let predict_updates_per_day ~seed ~h15 =
  if h15 <= 0.0 then 0.0
  else begin
    let durations = Outage_gen.durations ~seed:(seed + 77) ~n:4096 () in
    let poisonable_direction_share = 0.6 (* 40% reverse + 20% bidirectional *) in
    let params =
      {
        Lifeguard.Load_model.h15_per_day = h15 *. poisonable_direction_share;
        ih = 1.0;
        th = 1.0;
        updates_per_poison = 2.0;
      }
    in
    let gate = Lifeguard.Decide.default_config.min_outage_age in
    Lifeguard.Load_model.daily_path_changes params ~durations ~i:1.0 ~t:1.0
      ~d_minutes:((gate +. Lifeguard.Orchestrator.detection_lag) /. 60.0)
  end

(* FNV-1a over a canonical rendering of every config knob plus the seed:
   the resume guard. A snapshot taken under one (config, seed) must never
   be verified against a run under another — replay would diverge in
   confusing ways; the fingerprint turns that into an immediate error. *)
let config_fingerprint ~config ~seed =
  let b = Buffer.create 512 in
  let f x = Buffer.add_string b (Printf.sprintf "%h;" x) in
  let i x = Buffer.add_string b (string_of_int x ^ ";") in
  i seed;
  i config.ases;
  i config.target_count;
  f config.duration;
  f config.outages_per_day;
  f config.chaos.Chaos.probe_loss;
  f config.chaos.Chaos.vp_mtbf;
  f config.chaos.Chaos.atlas_staleness;
  f config.faults.Bgp.Faults.session_flap_mtbf;
  f config.faults.Bgp.Faults.session_flap_downtime;
  f config.faults.Bgp.Faults.link_mtbf;
  f config.faults.Bgp.Faults.link_mttr;
  f config.faults.Bgp.Faults.router_mtbf;
  f config.faults.Bgp.Faults.router_mttr;
  f config.faults.Bgp.Faults.update_loss;
  f config.faults.Bgp.Faults.update_dup;
  Buffer.add_string b (if config.planning then "planning;" else "fresh;");
  f config.decision_latency;
  Recover.Snapshot.digest (Buffer.contents b)

(* Byte-stable report codec: one [key value] line per field, floats as
   hex floats, lists comma-joined. This is what a snapshot's head
   report is stored as, and what the crash tests compare byte-for-byte. *)
let render_report r =
  let fl = Printf.sprintf "%h" in
  let fll xs = match xs with [] -> "-" | _ -> String.concat "," (List.map fl xs) in
  [
    "days " ^ fl r.days;
    "injected " ^ string_of_int r.injected;
    "drawn " ^ string_of_int r.drawn;
    "unplaceable " ^ string_of_int r.unplaceable;
    "detected " ^ string_of_int r.detected;
    "repaired " ^ string_of_int r.repaired;
    "stood_down " ^ string_of_int r.stood_down;
    "gave_up " ^ string_of_int r.gave_up;
    "unfinished " ^ string_of_int r.unfinished;
    "poisons " ^ string_of_int r.poisons;
    "unpoisons " ^ string_of_int r.unpoisons;
    "time_to_repair " ^ fll r.time_to_repair;
    "time_to_confirm " ^ fll r.time_to_confirm;
    "monitor_pairs " ^ string_of_int r.monitor_pairs;
    "monitor_skipped " ^ string_of_int r.monitor_skipped;
    "probes_sent " ^ string_of_int r.probes_sent;
    "budget_granted " ^ string_of_int r.budget_granted;
    "budget_denied " ^ string_of_int r.budget_denied;
    "isolation_retries " ^ string_of_int r.isolation_retries;
    "vp_crashes " ^ string_of_int r.vp_crashes;
    "lost_probes " ^ string_of_int r.lost_probes;
    "stale_refreshes " ^ string_of_int r.stale_refreshes;
    "collector_updates " ^ string_of_int r.collector_updates;
    "injected_ge15 " ^ string_of_int r.injected_ge15;
    "injected_h15 " ^ fl r.injected_h15;
    "measured_updates_per_day " ^ fl r.measured_updates_per_day;
    "predicted_updates_per_day " ^ fl r.predicted_updates_per_day;
    "reannounced " ^ string_of_int r.reannounced;
    "rolled_back " ^ string_of_int r.rolled_back;
    "breaker_trips " ^ string_of_int r.breaker_trips;
    "session_flaps " ^ string_of_int r.session_flaps;
    "link_failures " ^ string_of_int r.link_failures;
    "router_crashes " ^ string_of_int r.router_crashes;
    "updates_dropped " ^ string_of_int r.updates_dropped;
    "updates_duplicated " ^ string_of_int r.updates_duplicated;
    "plan_hits " ^ string_of_int r.plan_hits;
    "plan_misses " ^ string_of_int r.plan_misses;
    "plan_invalidations " ^ string_of_int r.plan_invalidations;
    "plan_demotions " ^ string_of_int r.plan_demotions;
  ]

let pick_targets rng mux ~count =
  let bed = mux.Scenarios.bed in
  let vps = Asn.Set.of_list bed.Scenarios.vantage_points in
  let pool =
    match bed.Scenarios.gen with
    | Some gen ->
        List.filter
          (fun a -> not (Asn.Set.mem a vps) && not (Asn.equal a mux.Scenarios.origin))
          gen.Topology.Topo_gen.stub_list
    | None -> []
  in
  if pool = [] then invalid_arg "Service: testbed has no stub pool to monitor";
  let count = min count (List.length pool) in
  Array.to_list (Prng.sample_without_replacement rng count (Array.of_list pool))

(* What every world's controller records into: the write-ahead journal
   every orchestrator action flows through, the snapshot cadence, the
   snapshot to verify replay fidelity against when resuming, and where
   captured snapshots go. *)
type durable = {
  d_journal : Recover.Journal.t;
  d_snapshot_every : float option;
  d_verify : Recover.Snapshot.t option;
  d_on_snapshot : Recover.Snapshot.t -> unit;
}

type recovery = {
  rc_reconcile : Recover.Reconcile.t;
  rc_journal : string list;
  rc_replayed : int;
  rc_marks : int;
}

type outcome =
  | Finished of { report : report; recovery : recovery }
  | Interrupted of {
      boundary : Recover.Crash.boundary;
      append : int;
      journal : string list;
      snapshot : Recover.Snapshot.t option;
    }

let run_in ~config ~durable ~seed () =
  let mux =
    Scenarios.bgpmux ~ases:config.ases ~infrastructure:Scenarios.No_infrastructure ~seed ()
  in
  let bed = mux.Scenarios.bed in
  let engine = bed.Scenarios.engine in
  let origin = mux.Scenarios.origin in
  let pick_rng = Prng.create ~seed:(seed + 1013) in
  let targets = pick_targets pick_rng mux ~count:config.target_count in
  (* Announce only what the fleet probes: the origin's spaces plus the
     monitored targets' and vantage points' infrastructure prefixes. *)
  Dataplane.Forward.announce_infrastructure_for bed.Scenarios.net
    ((origin :: bed.Scenarios.vantage_points) @ targets);
  Bgp.Network.run_until_quiet ~timeout:36000.0 bed.Scenarios.net;
  let atlas = Measurement.Atlas.create () in
  let responsiveness = Measurement.Responsiveness.create () in
  let chaos =
    Chaos.create ~config:config.chaos ~rng:(Prng.create ~seed:(seed + 2027)) ~engine ()
  in
  let faults =
    Bgp.Faults.create ~config:config.faults
      ~rng:(Prng.create ~seed:(seed + 4057))
      ~net:bed.Scenarios.net ()
  in
  let sched =
    Budget.scheduler ~global:(Budget.create ~rate:probe_rate ~burst:probe_burst ()) ()
  in
  (* The plan cache, seeded offline by the planner over this world's
     graph. Faults only drop sessions and never change the graph, so its
     plans stay valid for the whole run. *)
  let cache =
    if not config.planning then None
    else begin
      let net = bed.Scenarios.net in
      let graph = Bgp.Network.graph net in
      let paths = Bgp.Network.path_store net in
      let seed_plans =
        Plan.Planner.build ~graph ~store:paths ~plan:mux.Scenarios.plan ~targets
      in
      Some
        (Plan.Cache.create ~seed:seed_plans ~config:Lifeguard.Decide.default_config ~origin
           ~paths ())
    end
  in
  let hooks =
    {
      Lifeguard.Orchestrator.probe_gate =
        Some (fun ~now ~cost -> Budget.admit_vp sched ~vp:origin ~now ~cost);
      monitor_loss = Some (fun () -> Chaos.lose_probe chaos);
      isolation_attempt =
        Some
          (fun ~target:_ ~attempt:_ ->
            let now = Sim.Engine.now engine in
            if not (Budget.admit_vp sched ~vp:origin ~now ~cost:isolation_cost) then
              `Denied
            else if Chaos.lose_probe chaos then `Lost
            else `Proceed);
      vantage_filter = Some (fun vp -> Chaos.vp_alive chaos vp);
      plan_consult =
        (match cache with
        | None -> None
        | Some c ->
            let graph = Bgp.Network.graph bed.Scenarios.net in
            Some
              (fun ~target ~diagnosis ~outage_age ~breaker_open ->
                Plan.Cache.lookup c graph ~now:(Sim.Engine.now engine) ~target ~diagnosis
                  ~outage_age ~breaker_open));
      plan_demote =
        (match cache with
        | None -> None
        | Some c -> Some (fun ~poison ~reason -> Plan.Cache.demote c ~poison ~reason));
    }
  in
  let orch_config =
    {
      Lifeguard.Orchestrator.default_config with
      Lifeguard.Orchestrator.decision_latency = config.decision_latency;
      announce_spacing;
    }
  in
  let orch =
    Lifeguard.Orchestrator.create ~config:orch_config ~hooks ~journal:durable.d_journal
      ~env:bed.Scenarios.probe ~atlas ~responsiveness ~plan:mux.Scenarios.plan
      ~vantage_points:bed.Scenarios.vantage_points ()
  in
  (* Let the baseline converge before the clock starts counting. *)
  Bgp.Network.run_until_quiet ~timeout:36000.0 bed.Scenarios.net;
  let baseline_updates = Bgp.Network.Collector.count mux.Scenarios.collector in
  let t0 = Sim.Engine.now engine in
  let horizon = t0 +. config.duration in
  Lifeguard.Orchestrator.watch orch ~targets;
  let arrivals = Arrivals.create () in
  Arrivals.start ~toward_src:Scenarios.sentinel_prefix arrivals
    ~rng:(Prng.create ~seed:(seed + 3041))
    ~bed ~src:origin ~targets
    ~mean_interarrival:(86400.0 /. config.outages_per_day)
    ~until:horizon ();
  Chaos.start chaos ~vantage_points:bed.Scenarios.vantage_points ~until:horizon;
  (* Control-plane faults begin once the baseline has converged; the
     origin itself is never crashed (the service dying is a different
     experiment), but its sessions still flap. *)
  Bgp.Faults.start faults ~protect:[ origin ] ~until:horizon ();
  (* Periodic atlas refreshes keep isolation off the on-demand slow path;
     the staleness knob makes them silently unreliable. *)
  Sim.Engine.schedule_every engine ~every:atlas_refresh_interval ~until:horizon (fun now ->
      if not (Chaos.skip_refresh chaos) then
        Measurement.Atlas.refresh_all atlas bed.Scenarios.probe ~vps:[ origin ]
          ~dsts:targets ~now;
      `Continue);
  (* Harvest the report of the run so far over a window of [days].
     Everything here is a pure read, so a snapshot mark can harvest the
     head mid-run without perturbing it. *)
  let harvest ~days =
    let events = Lifeguard.Orchestrator.events orch in
    let count_events f = List.length (List.filter f events) in
    let detected =
      count_events (function
        | _, Lifeguard.Orchestrator.Outage_detected _ -> true
        | _ -> false)
    in
    let poisons =
      count_events (function
        | _, Lifeguard.Orchestrator.Poison_announced _ -> true
        | _ -> false)
    in
    let unpoisons =
      count_events (function _, Lifeguard.Orchestrator.Unpoisoned -> true | _ -> false)
    in
    let isolation_retries =
      count_events (function
        | _, Lifeguard.Orchestrator.Isolation_retry _ -> true
        | _ -> false)
    in
    let detections =
      List.filter_map
        (function
          | at, Lifeguard.Orchestrator.Outage_detected { target; _ } -> Some (at, target)
          | _ -> None)
        events
    in
    let detection_before ~target ~at =
      List.fold_left
        (fun acc (dt, dtarget) ->
          if Asn.equal dtarget target && dt <= at then Some dt else acc)
        None detections
    in
    let repaired = ref 0 and stood_down = ref 0 and gave_up = ref 0 in
    let ttr = ref [] in
    List.iter
      (fun (at, { Recover.Record.target; kind; _ }) ->
        match kind with
        | Recover.Record.Repaired ->
            incr repaired;
            (match detection_before ~target ~at with
            | Some dt -> ttr := (at -. dt) :: !ttr
            | None -> ())
        | Recover.Record.Stood_down -> incr stood_down
        | Recover.Record.Gave_up -> incr gave_up)
      (Lifeguard.Orchestrator.outcomes orch);
    let time_to_confirm =
      List.filter_map
        (function
          | at, Lifeguard.Orchestrator.Repair_confirmed { target; _ } -> begin
              match detection_before ~target ~at with
              | Some dt -> Some (at -. dt)
              | None -> None
            end
          | _ -> None)
        events
    in
    let sum_monitors f =
      List.fold_left (fun acc m -> acc + f m) 0 (Lifeguard.Orchestrator.monitors orch)
    in
    let plan_c f = match cache with Some c -> f c | None -> 0 in
    let injected_ge15 =
      List.length
        (List.filter (fun i -> i.Arrivals.duration >= 900.0) (Arrivals.injected arrivals))
    in
    let injected_h15 =
      if days <= 0.0 then 0.0 else float_of_int injected_ge15 /. days
    in
    let measured_updates_per_day =
      if days <= 0.0 then 0.0 else float_of_int (poisons + unpoisons) /. days
    in
    {
      days;
      injected = Arrivals.injected_count arrivals;
      drawn = Arrivals.drawn_count arrivals;
      unplaceable = Arrivals.unplaceable_count arrivals;
      detected;
      repaired = !repaired;
      stood_down = !stood_down;
      gave_up = !gave_up;
      unfinished =
        Lifeguard.Orchestrator.active_pipelines orch
        + Lifeguard.Orchestrator.queued_poisons orch
        + Lifeguard.Orchestrator.awaiting_repair orch;
      poisons;
      unpoisons;
      time_to_repair = List.rev !ttr;
      time_to_confirm;
      monitor_pairs = sum_monitors Measurement.Monitor.probe_count;
      monitor_skipped = sum_monitors Measurement.Monitor.skipped_count;
      probes_sent = bed.Scenarios.probe.Dataplane.Probe.probes_sent;
      budget_granted = Budget.scheduler_granted sched;
      budget_denied = Budget.scheduler_denied sched;
      isolation_retries;
      vp_crashes = Chaos.crash_count chaos;
      lost_probes = Chaos.lost_probe_count chaos;
      stale_refreshes = Chaos.stale_refresh_count chaos;
      collector_updates = Bgp.Network.Collector.count mux.Scenarios.collector - baseline_updates;
      injected_ge15;
      injected_h15;
      measured_updates_per_day;
      predicted_updates_per_day =
        predict_updates_per_day ~seed ~h15:injected_h15;
      reannounced = Lifeguard.Orchestrator.reannounce_count orch;
      rolled_back = Lifeguard.Orchestrator.rollback_count orch;
      breaker_trips = Lifeguard.Orchestrator.breaker_trip_count orch;
      session_flaps = Bgp.Faults.session_flap_count faults;
      link_failures = Bgp.Faults.link_failure_count faults;
      router_crashes = Bgp.Faults.router_crash_count faults;
      updates_dropped = Bgp.Faults.updates_dropped faults;
      updates_duplicated = Bgp.Faults.updates_duplicated faults;
      plan_hits = plan_c Plan.Cache.hits;
      plan_misses = plan_c Plan.Cache.misses;
      plan_invalidations = plan_c Plan.Cache.invalidations;
      plan_demotions = plan_c Plan.Cache.demotions;
    }
  in
  (* Snapshot marks: pure-read captures on the simulation clock, armed
     after every other recurring timer so their extra heap events shift
     sequence numbers uniformly without reordering anything — a run with
     marks is byte-identical to one without. When resuming, re-execution
     reaching the persisted snapshot's mark must capture the exact same
     bytes; anything else means replay infidelity and raises
     [Snapshot.Mismatch] rather than silently diverging. *)
  let marks_done = ref 0 in
  (match durable.d_snapshot_every with
  | Some every_s when every_s > 0.0 ->
      let fp = config_fingerprint ~config ~seed in
      Sim.Engine.schedule_every engine ~every:every_s ~until:horizon (fun _ ->
          let mark = !marks_done + 1 in
          let head = harvest ~days:(float_of_int mark *. every_s /. 86400.0) in
          let plan =
            match cache with
            | Some c -> "plan " ^ Recover.Record.escape (Plan.Cache.capture c) ^ "\n"
            | None -> ""
          in
          let snap =
            {
              Recover.Snapshot.at = Sim.Engine.now engine;
              mark;
              seed;
              config_fp = fp;
              journal_len = Recover.Journal.length durable.d_journal;
              state =
                Recover.Snapshot.digest
                  (Lifeguard.Orchestrator.capture orch ^ Budget.capture sched ^ plan);
              head = render_report head;
            }
          in
          (match durable.d_verify with
          | Some expected when expected.Recover.Snapshot.mark = mark ->
              if not (Recover.Snapshot.equal snap expected) then
                raise (Recover.Snapshot.Mismatch { mark })
          | _ -> ());
          marks_done := mark;
          durable.d_on_snapshot snap;
          `Continue)
  | _ -> ());
  Sim.Engine.run ~until:horizon engine;
  let report = harvest ~days:(config.duration /. 86400.0) in
  Obs.Metrics.add m_monitor_pairs report.monitor_pairs;
  Obs.Metrics.add m_isolation_retries report.isolation_retries;
  (* Recovery accounting: reconcile the journal against the collector's
     ground truth (the exactly-once verdict). *)
  let j = durable.d_journal in
  let prefix = mux.Scenarios.plan.Lifeguard.Remediate.production in
  let watchdog = Lifeguard.Orchestrator.collector orch in
  let poisoned_views =
    List.map
      (fun vp ->
        let carried =
          match Bgp.Network.Collector.route_view watchdog ~peer:vp ~prefix with
          | Some (Some entry) -> begin
              (* A poisoned announcement is [O; p; O]: at any view the
                 path's origin-side tail reads O, p, O (the baseline's
                 prepend padding is excluded because p = O there). *)
              match List.rev (Bgp.As_path.to_list entry.Bgp.Route.ann.Bgp.Route.path) with
              | o2 :: p :: o1 :: _
                when Asn.equal o1 origin && Asn.equal o2 origin && not (Asn.equal p origin) ->
                  Some p
              | _ -> None
            end
          | Some None | None -> None
        in
        (vp, carried))
      bed.Scenarios.vantage_points
  in
  let rc =
    Recover.Reconcile.check ~replayed:(Recover.Journal.replayed j)
      ~grace:(2.0 *. Lifeguard.Orchestrator.recheck_interval)
      ~horizon:(Sim.Engine.now engine) ~poisoned_views (Recover.Journal.records j)
  in
  ( report,
    {
      rc_reconcile = rc;
      rc_journal = Recover.Journal.lines j;
      rc_replayed = Recover.Journal.replayed j;
      rc_marks = !marks_done;
    } )

(* A world with an in-memory journal, no snapshot marks and no sinks. *)
let run ?(config = default_config) ~seed () =
  let durable =
    {
      d_journal = Recover.Journal.create ();
      d_snapshot_every = None;
      d_verify = None;
      d_on_snapshot = ignore;
    }
  in
  fst (run_in ~config ~durable ~seed ())

(* The durable entry point: the same world as [run], with the journal's
   sink and replay prefix, optional snapshot marks, and crash injection.
   Recovery is deterministic re-execution — the resumed run replays from
   t = 0 with the persisted journal as its expected prefix (byte-for-byte
   verified, [Journal.Divergence] otherwise) and the persisted snapshot
   as a replay-fidelity check at its mark. Because re-execution re-derives
   every action, an effect lost to an [After_write] crash is re-applied
   exactly once, and the final report is byte-identical to the
   uninterrupted run's at any --jobs. *)
let run_durable ?(config = default_config) ~seed ?(journal = []) ?snapshot ?crash
    ?snapshot_every ?(journal_sink = fun _ -> ()) ?(snapshot_sink = fun _ -> ()) () =
  let fp = config_fingerprint ~config ~seed in
  (match snapshot with
  | Some s when not (String.equal s.Recover.Snapshot.config_fp fp) ->
      invalid_arg "Service.run_durable: snapshot was taken under a different (config, seed)"
  | Some _ when Option.value snapshot_every ~default:0.0 <= 0.0 ->
      invalid_arg "Service.run_durable: a snapshot is verified only at marks; pass snapshot_every"
  | _ -> ());
  let j =
    match journal with
    | [] -> Recover.Journal.create ~sink:journal_sink ?crash ()
    | lines -> Recover.Journal.replaying ~sink:journal_sink ?crash ~expected:lines ()
  in
  let last_snap = ref snapshot in
  let durable =
    {
      d_journal = j;
      d_snapshot_every = snapshot_every;
      d_verify = snapshot;
      d_on_snapshot =
        (fun s ->
          last_snap := Some s;
          snapshot_sink s);
    }
  in
  match run_in ~config ~durable ~seed () with
  | report, recovery -> Finished { report; recovery }
  | exception Recover.Crash.Crashed { boundary; append } ->
      Interrupted
        { boundary; append; journal = Recover.Journal.lines j; snapshot = !last_snap }
