(* The fleet layer: probe budgets, chaos knobs, and the
   continuous service loop end to end. *)

open Net

(* ------------------------------------------------------------------ *)
(* Token buckets. *)

let test_budget_bucket () =
  let s = Fleet.Budget.scheduler ~global:(Fleet.Budget.create ~rate:2.0 ~burst:10.0 ()) () in
  let admit ~now ~cost = Fleet.Budget.admit_vp s ~vp:(Asn.of_int 101) ~now ~cost in
  (* Starts full: 10 tokens. *)
  Alcotest.(check bool) "full bucket admits" true (admit ~now:0.0 ~cost:10);
  Alcotest.(check bool) "empty bucket refuses" false (admit ~now:0.0 ~cost:1);
  (* Refusal consumes nothing; 3 s at 2/s refills 6. *)
  Alcotest.(check bool) "refill admits" true (admit ~now:3.0 ~cost:6);
  Alcotest.(check bool) "but no more" false (admit ~now:3.0 ~cost:1);
  (* The bucket never overflows [burst]. *)
  Alcotest.(check bool) "capped at burst" false (admit ~now:1000.0 ~cost:11);
  Alcotest.(check bool) "burst itself fits" true (admit ~now:1000.0 ~cost:10);
  Alcotest.(check int) "granted accounting" 26 (Fleet.Budget.scheduler_granted s);
  Alcotest.(check int) "denied accounting" 13 (Fleet.Budget.scheduler_denied s)

let test_budget_scheduler () =
  let global = Fleet.Budget.create ~rate:1.0 ~burst:10.0 () in
  let s = Fleet.Budget.scheduler ~global () in
  let vp1 = Asn.of_int 101 and vp2 = Asn.of_int 102 in
  Alcotest.(check bool) "vp1 admitted" true (Fleet.Budget.admit_vp s ~vp:vp1 ~now:0.0 ~cost:6);
  (* Every vantage point draws on the one bucket. *)
  Alcotest.(check bool) "vp2 refused" false (Fleet.Budget.admit_vp s ~vp:vp2 ~now:0.0 ~cost:5);
  Alcotest.(check bool) "vp2 after refill" true (Fleet.Budget.admit_vp s ~vp:vp2 ~now:1.0 ~cost:5);
  Alcotest.(check int) "granted" 11 (Fleet.Budget.scheduler_granted s);
  Alcotest.(check int) "denied" 5 (Fleet.Budget.scheduler_denied s);
  Alcotest.(check string) "capture is the global bucket" "bucket global 0x0p+0 0x1p+0 11 5\n"
    (Fleet.Budget.capture s)

(* The snapshot digest reads [capture], so its bytes are pinned over a
   run of fractional refills, denials, a zero cost, a clock that steps
   back and a refill capped at the burst. The expected lines were
   captured from the bucket before its level moved into a float-only
   record. *)
let test_budget_capture_pin () =
  let s = Fleet.Budget.scheduler ~global:(Fleet.Budget.create ~rate:0.3 ~burst:2.5 ()) () in
  let step (now, cost) =
    let ok = Fleet.Budget.admit_vp s ~vp:(Asn.of_int 7) ~now ~cost in
    Printf.sprintf "%b %s" ok (Fleet.Budget.capture s)
  in
  Alcotest.(check (list string)) "captures"
    [
      "true bucket global 0x1.8p+0 0x0p+0 1 0\n";
      "false bucket global 0x1.8p+0 0x0p+0 1 2\n";
      "true bucket global 0x1.35c28f5c28f5cp-1 0x1.6666666666666p-2 2 2\n";
      "true bucket global 0x1.47ae147ae148p-7 0x1.b333333333333p+0 3 2\n";
      "false bucket global 0x1.e666666666666p-2 0x1.ap+1 3 4\n";
      "true bucket global 0x1.e666666666666p-2 0x1.ap+1 3 4\n";
      "false bucket global 0x1.e666666666666p-2 0x1.ap+1 3 5\n";
      "false bucket global 0x1.4p+1 0x1.4333333333333p+3 3 8\n";
      "true bucket global 0x1.8p+0 0x1.4333333333333p+3 4 8\n";
      "true bucket global 0x1.35c28f5c28f5cp-1 0x1.4e66666666666p+3 5 8\n";
      "true bucket global 0x1p-1 0x1.9p+8 7 8\n";
      "false bucket global 0x1.2e147ae147bp-1 0x1.904cccccccccdp+8 7 11\n";
      "true bucket global 0x1.1eb851eb85p-4 0x1.91e6666666666p+8 8 11\n";
    ]
    (List.map step
       [
         (0.0, 1); (0.0, 2); (0.35, 1); (1.7, 1); (3.25, 2); (3.25, 0); (2.0, 1); (10.1, 3);
         (10.1, 1); (10.45, 1); (400.0, 2); (400.3, 3); (401.9, 1);
       ])

let test_budget_validation () =
  let raises f = Alcotest.(check bool) "rejects" true (try ignore (f ()); false with Invalid_argument _ -> true) in
  raises (fun () -> Fleet.Budget.create ~rate:(-1.0) ~burst:10.0 ());
  raises (fun () -> Fleet.Budget.create ~rate:1.0 ~burst:0.0 ())

(* ------------------------------------------------------------------ *)
(* Chaos. *)

let test_chaos_determinism () =
  let sample seed =
    let engine = Sim.Engine.create () in
    let chaos =
      Fleet.Chaos.create
        ~config:{ Fleet.Chaos.none with Fleet.Chaos.probe_loss = 0.3; atlas_staleness = 0.5 }
        ~rng:(Prng.create ~seed) ~engine ()
    in
    List.init 64 (fun _ -> Fleet.Chaos.lose_probe chaos)
  in
  Alcotest.(check (list bool)) "same seed, same coins" (sample 7) (sample 7);
  let losses = List.length (List.filter Fun.id (sample 7)) in
  Alcotest.(check bool)
    (Printf.sprintf "loss rate plausible (got %d/64)" losses)
    true
    (losses > 8 && losses < 32)

let test_chaos_vp_crashes () =
  let engine = Sim.Engine.create () in
  let chaos =
    Fleet.Chaos.create
      ~config:{ Fleet.Chaos.none with Fleet.Chaos.vp_mtbf = 600.0 }
      ~rng:(Prng.create ~seed:11) ~engine ()
  in
  let vp = Asn.of_int 77 in
  Fleet.Chaos.start chaos ~vantage_points:[ vp ] ~until:86400.0;
  Alcotest.(check bool) "alive initially" true (Fleet.Chaos.vp_alive chaos vp);
  (* Over a day with a 10-minute MTBF the VP must crash many times, and
     every crash must eventually recover (alive at the horizon whenever
     the last sampled downtime has elapsed). *)
  Sim.Engine.run ~until:86400.0 engine;
  Alcotest.(check bool)
    (Printf.sprintf "many crashes (got %d)" (Fleet.Chaos.crash_count chaos))
    true
    (Fleet.Chaos.crash_count chaos > 20);
  Sim.Engine.run ~until:172800.0 engine;
  Alcotest.(check bool) "recovered once the process stops" true (Fleet.Chaos.vp_alive chaos vp)

let test_chaos_validation () =
  let raises f = Alcotest.(check bool) "rejects" true (try ignore (f ()); false with Invalid_argument _ -> true) in
  let create config =
    Fleet.Chaos.create ~config ~rng:(Prng.create ~seed:1) ~engine:(Sim.Engine.create ()) ()
  in
  raises (fun () -> create { Fleet.Chaos.none with Fleet.Chaos.probe_loss = 1.5 });
  raises (fun () -> create { Fleet.Chaos.none with Fleet.Chaos.vp_mtbf = -1.0 })

(* ------------------------------------------------------------------ *)
(* The service loop. *)

(* Small worlds keep the suite fast: 10 targets, a quarter-day window,
   arrivals brisk enough that pipelines actually open. *)
let small_config =
  {
    Fleet.Service.default_config with
    Fleet.Service.target_count = 10;
    duration = 21600.0;
    outages_per_day = 48.0;
  }

let test_service_deterministic () =
  let a = Fleet.Service.run ~config:small_config ~seed:5 () in
  let b = Fleet.Service.run ~config:small_config ~seed:5 () in
  Alcotest.(check int) "same injected" a.Fleet.Service.injected b.Fleet.Service.injected;
  Alcotest.(check int) "same detected" a.Fleet.Service.detected b.Fleet.Service.detected;
  Alcotest.(check int) "same probes" a.Fleet.Service.probes_sent b.Fleet.Service.probes_sent;
  Alcotest.(check int) "same poisons" a.Fleet.Service.poisons b.Fleet.Service.poisons;
  Alcotest.(check bool) "something happened" true (a.Fleet.Service.detected > 0)

let test_service_accounting () =
  let r = Fleet.Service.run ~config:small_config ~seed:5 () in
  let open Fleet.Service in
  Alcotest.(check int) "every pipeline accounted for" r.detected
    (r.repaired + r.stood_down + r.gave_up + r.unfinished);
  Alcotest.(check int) "each repair has a latency" r.repaired (List.length r.time_to_repair);
  List.iter
    (fun ttr -> Alcotest.(check bool) "repair latency positive" true (ttr > 0.0))
    r.time_to_repair;
  Alcotest.(check bool) "unpoisons never exceed poisons" true (r.unpoisons <= r.poisons);
  Alcotest.(check bool) "budget was consulted" true (r.budget_granted > 0)

let test_service_chaos_terminates () =
  (* The acceptance bar: with 20% probe loss every opened pipeline still
     reaches a terminal state within the retry budget — nothing wedges.
     Arrivals that open near the horizon are the only open pipelines
     allowed, and the window ends with a quiet tail longer than the
     retry bound, so here [unfinished] must be zero. *)
  let config =
    {
      small_config with
      Fleet.Service.chaos = { Fleet.Chaos.none with Fleet.Chaos.probe_loss = 0.2 };
    }
  in
  let r = Fleet.Service.run ~config ~seed:9 () in
  let open Fleet.Service in
  Alcotest.(check bool) "pipelines opened" true (r.detected > 0);
  Alcotest.(check bool) "chaos actually bit" true (r.lost_probes > 0);
  Alcotest.(check int) "all pipelines terminal" r.detected
    (r.repaired + r.stood_down + r.gave_up + r.unfinished);
  Alcotest.(check bool)
    (Printf.sprintf "only horizon-adjacent pipelines open (got %d)" r.unfinished)
    true
    (r.unfinished <= 2)

(* The resume guard: every config field, down to each chaos and fault
   knob, must reach [config_fingerprint]. The base record is spelled out
   in full, so a new field fails to compile here until it gets a row. *)
let test_fingerprint_covers_config () =
  let chaos =
    { Fleet.Chaos.probe_loss = 0.1; vp_mtbf = 7200.0; atlas_staleness = 0.2 }
  in
  let faults =
    {
      Bgp.Faults.session_flap_mtbf = 14400.0;
      session_flap_downtime = 30.0;
      link_mtbf = 43200.0;
      link_mttr = 900.0;
      router_mtbf = 86400.0;
      router_mttr = 300.0;
      update_loss = 0.01;
      update_dup = 0.005;
    }
  in
  let base =
    {
      Fleet.Service.ases = 150;
      target_count = 25;
      duration = 86400.0;
      outages_per_day = 12.0;
      chaos;
      faults;
      planning = false;
      decision_latency = 0.0;
    }
  in
  let open Fleet.Service in
  let variants =
    [
      ("ases", { base with ases = 151 });
      ("target_count", { base with target_count = 26 });
      ("duration", { base with duration = 86401.0 });
      ("outages_per_day", { base with outages_per_day = 13.0 });
      ("chaos.probe_loss", { base with chaos = { chaos with Fleet.Chaos.probe_loss = 0.2 } });
      ("chaos.vp_mtbf", { base with chaos = { chaos with Fleet.Chaos.vp_mtbf = 3600.0 } });
      ( "chaos.atlas_staleness",
        { base with chaos = { chaos with Fleet.Chaos.atlas_staleness = 0.3 } } );
      ( "faults.session_flap_mtbf",
        { base with faults = { faults with Bgp.Faults.session_flap_mtbf = 7200.0 } } );
      ( "faults.session_flap_downtime",
        { base with faults = { faults with Bgp.Faults.session_flap_downtime = 60.0 } } );
      ("faults.link_mtbf", { base with faults = { faults with Bgp.Faults.link_mtbf = 1.0 } });
      ("faults.link_mttr", { base with faults = { faults with Bgp.Faults.link_mttr = 1.0 } });
      ("faults.router_mtbf", { base with faults = { faults with Bgp.Faults.router_mtbf = 1.0 } });
      ("faults.router_mttr", { base with faults = { faults with Bgp.Faults.router_mttr = 1.0 } });
      ("faults.update_loss", { base with faults = { faults with Bgp.Faults.update_loss = 0.02 } });
      ("faults.update_dup", { base with faults = { faults with Bgp.Faults.update_dup = 0.01 } });
      ("planning", { base with planning = true });
      ("decision_latency", { base with decision_latency = 180.0 });
    ]
  in
  let fp config = config_fingerprint ~config ~seed:42 in
  Alcotest.(check string) "stable" (fp base) (fp { base with ases = 150 });
  Alcotest.(check bool) "seed counts" false
    (String.equal (fp base) (config_fingerprint ~config:base ~seed:43));
  let seen = Hashtbl.create 32 in
  Hashtbl.replace seen (fp base) "base";
  List.iter
    (fun (field, config) ->
      let f = fp config in
      (match Hashtbl.find_opt seen f with
      | Some other -> Alcotest.failf "changing %s gives the fingerprint of %s" field other
      | None -> ());
      Hashtbl.replace seen f field)
    variants

(* ------------------------------------------------------------------ *)
(* Control-plane fault injection. *)

let test_faults_validation () =
  let raises f =
    Alcotest.(check bool) "rejects" true
      (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  let p = Experiments.Fault_study.default_profile in
  raises (fun () -> Bgp.Faults.validate { p with Bgp.Faults.session_flap_mtbf = -1.0 });
  raises (fun () -> Bgp.Faults.validate { p with Bgp.Faults.session_flap_downtime = 0.0 });
  raises (fun () -> Bgp.Faults.validate { p with Bgp.Faults.update_loss = 1.5 });
  raises (fun () -> Bgp.Faults.validate { p with Bgp.Faults.update_loss = 0.7; update_dup = 0.7 });
  raises (fun () -> Bgp.Faults.validate { p with Bgp.Faults.link_mttr = -5.0 });
  (* Scaling to zero intensity disables every class. *)
  let z = Bgp.Faults.scale p 0.0 in
  Alcotest.(check (float 0.0)) "mtbf off" 0.0 z.Bgp.Faults.session_flap_mtbf;
  Alcotest.(check (float 0.0)) "loss off" 0.0 z.Bgp.Faults.update_loss;
  ignore (Bgp.Faults.validate z)

(* The PR's acceptance bar: under a session-flap schedule (plus link,
   router and wire faults) every detected outage still reaches the
   terminal accounting identity, the injected-fault counters are live,
   and the whole thing is deterministic. *)
let test_service_faults_terminal () =
  let faults = Bgp.Faults.scale Experiments.Fault_study.default_profile 2.0 in
  let config = { small_config with Fleet.Service.faults } in
  let r = Fleet.Service.run ~config ~seed:5 () in
  let open Fleet.Service in
  Alcotest.(check bool) "pipelines opened" true (r.detected > 0);
  Alcotest.(check bool) "sessions flapped" true (r.session_flaps > 0);
  Alcotest.(check bool) "links failed" true (r.link_failures > 0);
  Alcotest.(check bool) "updates lost on the wire" true (r.updates_dropped > 0);
  Alcotest.(check int) "every pipeline accounted for" r.detected
    (r.repaired + r.stood_down + r.gave_up + r.unfinished);
  let r' = Fleet.Service.run ~config ~seed:5 () in
  Alcotest.(check int) "deterministic: detected" r.detected r'.detected;
  Alcotest.(check int) "deterministic: flaps" r.session_flaps r'.session_flaps;
  Alcotest.(check int) "deterministic: crashes" r.router_crashes r'.router_crashes;
  Alcotest.(check int) "deterministic: dropped" r.updates_dropped r'.updates_dropped;
  Alcotest.(check int) "deterministic: poisons" r.poisons r'.poisons

let test_service_faults_off_inert () =
  (* [Faults.none] draws nothing: all five counters stay zero and so do
     the watchdog's fault-recovery counters. *)
  let r = Fleet.Service.run ~config:small_config ~seed:5 () in
  let open Fleet.Service in
  Alcotest.(check int) "no flaps" 0 r.session_flaps;
  Alcotest.(check int) "no link failures" 0 r.link_failures;
  Alcotest.(check int) "no crashes" 0 r.router_crashes;
  Alcotest.(check int) "no lost updates" 0 r.updates_dropped;
  Alcotest.(check int) "no duplicated updates" 0 r.updates_duplicated;
  Alcotest.(check int) "no re-announces" 0 r.reannounced;
  Alcotest.(check int) "no rollbacks" 0 r.rolled_back;
  Alcotest.(check int) "no breaker trips" 0 r.breaker_trips

let test_fault_study_validation () =
  let raises f =
    Alcotest.(check bool) "rejects" true
      (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  raises (fun () -> Experiments.Fault_study.run ~intensities:[] ~seed:1 ());
  raises (fun () -> Experiments.Fault_study.run ~intensities:[ 1.0; -0.5 ] ~seed:1 ());
  raises (fun () ->
      Experiments.Fault_study.run
        ~profile:{ Experiments.Fault_study.default_profile with Bgp.Faults.update_loss = 2.0 }
        ~seed:1 ())

let test_fault_study_jobs_invariant () =
  let render ~jobs =
    let config = { small_config with Fleet.Service.duration = 10800.0 } in
    let r =
      Experiments.Fault_study.run ~config ~intensities:[ 0.0; 1.0 ] ~targets:10 ~jobs ~seed:7 ()
    in
    String.concat "\n" (List.map Stats.Table.render (Experiments.Fault_study.to_tables r))
  in
  Alcotest.(check string) "jobs 1 = jobs 2" (render ~jobs:1) (render ~jobs:2)

(* Every intensity's worlds run as one trial list, split back per
   intensity: each row must be exactly that intensity's fleet study run
   alone, so a split off by one world fails here. *)
let test_fault_study_rows_are_fleet_studies () =
  let config = { small_config with Fleet.Service.duration = 10800.0 } in
  let profile = Experiments.Fault_study.default_profile in
  let r =
    Experiments.Fault_study.run ~config ~profile ~intensities:[ 0.0; 2.0 ] ~targets:20 ~jobs:2
      ~seed:7 ()
  in
  Alcotest.(check (list (float 0.0)))
    "rows ascending" [ 0.0; 2.0 ]
    (List.map (fun row -> row.Experiments.Fault_study.intensity) r.Experiments.Fault_study.rows);
  List.iter
    (fun { Experiments.Fault_study.intensity; result } ->
      let faults = Bgp.Faults.scale profile intensity in
      let alone =
        Experiments.Fleet_study.run ~config:{ config with Fleet.Service.faults } ~targets:20
          ~jobs:1 ~seed:7 ()
      in
      Alcotest.(check int) (Printf.sprintf "intensity %.1f: worlds" intensity) 2 result.shards;
      Alcotest.(check bool)
        (Printf.sprintf "intensity %.1f: row = its fleet study alone" intensity)
        true
        (compare alone result = 0))
    r.Experiments.Fault_study.rows

(* ------------------------------------------------------------------ *)
(* The fleet study: jobs-invariance is the whole point of sharding. *)

let render_study ~jobs =
  let config = { small_config with Fleet.Service.duration = 10800.0 } in
  let r = Experiments.Fleet_study.run ~config ~targets:20 ~jobs ~seed:3 () in
  String.concat "\n" (List.map Stats.Table.render (Experiments.Fleet_study.to_tables r))

let test_study_jobs_invariant () =
  let t1 = render_study ~jobs:1 in
  let t2 = render_study ~jobs:2 in
  let t4 = render_study ~jobs:4 in
  Alcotest.(check string) "jobs 1 = jobs 2" t1 t2;
  Alcotest.(check string) "jobs 1 = jobs 4" t1 t4

let test_study_merge () =
  let config = { small_config with Fleet.Service.duration = 10800.0 } in
  let merged = Experiments.Fleet_study.run ~config ~targets:20 ~jobs:1 ~seed:3 () in
  Alcotest.(check int) "two worlds" 2 merged.Experiments.Fleet_study.shards;
  let w0 = Fleet.Service.run ~config ~seed:3 () in
  let w1 = Fleet.Service.run ~config ~seed:4 () in
  Alcotest.(check int) "injected sums across worlds"
    (w0.Fleet.Service.injected + w1.Fleet.Service.injected)
    merged.Experiments.Fleet_study.injected;
  Alcotest.(check int) "poisons sum across worlds"
    (w0.Fleet.Service.poisons + w1.Fleet.Service.poisons)
    merged.Experiments.Fleet_study.poisons

let suite =
  [
    Alcotest.test_case "budget: token bucket" `Quick test_budget_bucket;
    Alcotest.test_case "budget: scheduler is the global bucket" `Quick test_budget_scheduler;
    Alcotest.test_case "budget: validation" `Quick test_budget_validation;
    Alcotest.test_case "budget: capture bytes pinned" `Quick test_budget_capture_pin;
    Alcotest.test_case "chaos: deterministic coins" `Quick test_chaos_determinism;
    Alcotest.test_case "chaos: VP crash/recover" `Quick test_chaos_vp_crashes;
    Alcotest.test_case "chaos: validation" `Quick test_chaos_validation;
    Alcotest.test_case "service: deterministic" `Quick test_service_deterministic;
    Alcotest.test_case "service: pipeline accounting" `Quick test_service_accounting;
    Alcotest.test_case "service: terminates under chaos" `Quick test_service_chaos_terminates;
    Alcotest.test_case "service: fingerprint covers every config field" `Quick
      test_fingerprint_covers_config;
    Alcotest.test_case "faults: validation" `Quick test_faults_validation;
    Alcotest.test_case "faults: terminal outcomes under fault schedule" `Quick
      test_service_faults_terminal;
    Alcotest.test_case "faults: disabled injector is inert" `Quick test_service_faults_off_inert;
    Alcotest.test_case "fault study: validation" `Quick test_fault_study_validation;
    Alcotest.test_case "fault study: jobs-invariant" `Quick test_fault_study_jobs_invariant;
    Alcotest.test_case "fault study: rows are per-intensity fleet studies" `Quick
      test_fault_study_rows_are_fleet_studies;
    Alcotest.test_case "study: byte-identical across jobs" `Quick test_study_jobs_invariant;
    Alcotest.test_case "study: worlds merge by summation" `Quick test_study_merge;
  ]
