(* lib/plan: precomputed remediation plans — the planner's failure map,
   the cache's byte-identical hit path (after faults, and demand-planned
   on a generated world), breaker drops, watchdog-divergence demotion,
   and the plan study's determinism across jobs. *)

open Net
open Helpers

let decide_config = Lifeguard.Decide.default_config
let verdict_str v = Format.asprintf "%a" Lifeguard.Decide.pp_verdict v
let no_breaker _ = false

(* The fig. 2 world with O running LIFEGUARD, exactly as the core tests
   build it: baseline announced, atlas populated, isolation context up. *)
let plan_world () =
  let w = fig2_world () in
  announce_all_infrastructure w;
  let rplan = Lifeguard.Remediate.plan ~sentinel ~origin:o ~production () in
  Lifeguard.Remediate.announce_baseline w.net rplan;
  converge w;
  let atlas = Measurement.Atlas.create () in
  Measurement.Atlas.refresh_all atlas w.probe ~vps:[ o ] ~dsts:[ e; d; f ] ~now:0.0;
  let responsiveness = Measurement.Responsiveness.create () in
  let ctx =
    {
      Lifeguard.Isolation.env = w.probe;
      atlas;
      responsiveness;
      vantage_points = [ o; d; c ];
      source_overrides = [ (o, Prefix.nth_address production 1) ];
    }
  in
  (w, rplan, ctx)

let reverse_failure_spec = Dataplane.Failure.spec ~toward:sentinel (Dataplane.Failure.Node a)

let seeded_cache w rplan =
  let store = Bgp.Network.path_store w.net in
  let seed = Plan.Planner.build ~graph:w.graph ~store ~plan:rplan ~targets:[ e; f ] in
  Plan.Cache.create ~seed ~config:decide_config ~origin:o ~paths:store ()

(* The offline planner enumerates (target, class) pairs for fig. 2: the
   reverse-failure class blaming A must carry a feasible poison for E
   (E can re-route via D) and a hopeless remedy for every class blaming
   B (O's sole provider). *)
let test_planner_failure_map () =
  let w, rplan, _ = plan_world () in
  let store = Bgp.Network.path_store w.net in
  let seed = Plan.Planner.build ~graph:w.graph ~store ~plan:rplan ~targets:[ e; f ] in
  Alcotest.(check bool) "map is non-empty" true (Plan.Plan_store.cardinal seed > 0);
  let cls_rev blamed =
    { Plan.Failure_class.blamed; direction = Lifeguard.Isolation.Reverse_failure; reversal = true }
  in
  (match Plan.Plan_store.find seed ~target:e ~cls:(cls_rev a) with
  | Some remedy ->
      Alcotest.(check bool) "poisoning A is feasible for E" true
        (Plan.Plan_store.feasible remedy);
      Alcotest.(check bool) "remedy is a poison" true (Plan.Plan_store.poisons remedy)
  | None -> Alcotest.fail "expected a plan for (E, reverse blaming A)");
  (match Plan.Plan_store.find seed ~target:e ~cls:(cls_rev b) with
  | Some remedy ->
      Alcotest.(check bool) "no path around B (sole provider)" false
        (Plan.Plan_store.feasible remedy)
  | None -> Alcotest.fail "expected a plan for (E, reverse blaming B)")

(* Selective poisoning goes through the origin's providers (§3.1.2), so
   only a blamed provider gets it. On a hand-built world where O has
   providers P1 and P2, a peer Q and a customer C, and the target T is a
   customer of P1, P2 and Q, every blame below is avoidable: P1 through
   P2, Q through P1, and C is on no path from T. *)
let test_selective_only_for_providers () =
  let open Topology in
  let origin = asn 10 and p1 = asn 20 and p2 = asn 21 and q = asn 30 and c = asn 40 in
  let target = asn 50 in
  let graph = As_graph.create () in
  List.iter (fun a -> As_graph.add_as graph a) [ origin; p1; p2; q; c; target ];
  As_graph.add_link graph ~a:origin ~b:p1 ~rel:Relationship.Provider;
  As_graph.add_link graph ~a:origin ~b:p2 ~rel:Relationship.Provider;
  As_graph.add_link graph ~a:origin ~b:q ~rel:Relationship.Peer;
  As_graph.add_link graph ~a:origin ~b:c ~rel:Relationship.Customer;
  List.iter
    (fun up -> As_graph.add_link graph ~a:target ~b:up ~rel:Relationship.Provider)
    [ p1; p2; q ];
  let remedy blamed =
    let cls =
      { Plan.Failure_class.blamed; direction = Lifeguard.Isolation.Reverse_failure; reversal = true }
    in
    match Plan.Planner.remedy_for_class graph ~origin ~target ~cls with
    | Plan.Plan_store.Selective_poison { via; _ } ->
        "selective via " ^ String.concat "," (List.map Asn.to_string via)
    | Plan.Plan_store.Poison _ -> "poison"
    | Plan.Plan_store.Alternate_path -> "alternate path"
    | Plan.Plan_store.Hopeless reason -> "hopeless: " ^ reason
  in
  Alcotest.(check string) "blamed provider" ("selective via " ^ Asn.to_string p1) (remedy p1);
  Alcotest.(check string) "blamed peer" "poison" (remedy q);
  Alcotest.(check string) "blamed customer" "poison" (remedy c)

(* A hit must replay into the byte-identical verdict the fresh decision
   process produces — at every outage age (Wait before the gate, Poison
   after) and for infeasible blames (Hopeless with the same reason). *)
let test_hit_byte_identical () =
  let w, rplan, ctx = plan_world () in
  let cache = seeded_cache w rplan in
  Dataplane.Failure.add w.failures reverse_failure_spec;
  let diagnosis = Lifeguard.Isolation.isolate ctx ~src:o ~dst:e in
  List.iter
    (fun age ->
      let fresh =
        Lifeguard.Decide.decide decide_config w.graph ~origin:o ~diagnosis ~outage_age:age
      in
      match
        Plan.Cache.lookup cache w.graph ~now:0.0 ~target:e ~diagnosis ~outage_age:age
          ~breaker_open:no_breaker
      with
      | None -> Alcotest.failf "expected a plan hit at age %.0f" age
      | Some v ->
          Alcotest.(check string)
            (Printf.sprintf "verdict at age %.0f" age)
            (verdict_str fresh) (verdict_str v))
    [ 60.0; 400.0 ];
  Alcotest.(check int) "both lookups hit" 2 (Plan.Cache.hits cache);
  (* Captive blame: B is O's sole provider, so fresh and planned must
     agree on the hopeless reason string too. *)
  let captive = { diagnosis with Lifeguard.Isolation.blame = Lifeguard.Isolation.Blamed_as b } in
  let fresh =
    Lifeguard.Decide.decide decide_config w.graph ~origin:o ~diagnosis:captive ~outage_age:400.0
  in
  match
    Plan.Cache.lookup cache w.graph ~now:0.0 ~target:e ~diagnosis:captive ~outage_age:400.0
      ~breaker_open:no_breaker
  with
  | None -> Alcotest.fail "expected a plan hit for the captive blame"
  | Some v -> Alcotest.(check string) "hopeless verdicts agree" (verdict_str fresh) (verdict_str v)

(* An unseeded cache misses once, demand-plans the class, and serves the
   byte-identical verdict from then on. *)
let test_miss_demand_plans_then_hits () =
  let w, _, ctx = plan_world () in
  let store = Bgp.Network.path_store w.net in
  let cache = Plan.Cache.create ~config:decide_config ~origin:o ~paths:store () in
  Dataplane.Failure.add w.failures reverse_failure_spec;
  let diagnosis = Lifeguard.Isolation.isolate ctx ~src:o ~dst:e in
  let lookup () =
    Plan.Cache.lookup cache w.graph ~now:0.0 ~target:e ~diagnosis ~outage_age:400.0
      ~breaker_open:no_breaker
  in
  (match lookup () with
  | None -> ()
  | Some _ -> Alcotest.fail "an empty cache must miss");
  Alcotest.(check int) "one miss" 1 (Plan.Cache.misses cache);
  let fresh =
    Lifeguard.Decide.decide decide_config w.graph ~origin:o ~diagnosis ~outage_age:400.0
  in
  (match lookup () with
  | None -> Alcotest.fail "the demand-planned class must hit"
  | Some v -> Alcotest.(check string) "verdicts agree" (verdict_str fresh) (verdict_str v));
  Alcotest.(check int) "one hit" 1 (Plan.Cache.hits cache)

(* Faults drop sessions, never graph edges, so the feasibility bit a
   plan memoizes cannot go stale: after a link failure and a router
   crash the seeded plans still hit, and each verdict equals a fresh
   decision over the same world. *)

(* The plan count, read off the snapshot rendering ("size=N ..."). *)
let cache_size cache = Scanf.sscanf (Plan.Cache.capture cache) "size=%d " Fun.id

let test_plans_survive_faults () =
  let w, rplan, ctx = plan_world () in
  let cache = seeded_cache w rplan in
  let size_before = cache_size cache in
  Dataplane.Failure.add w.failures reverse_failure_spec;
  let diagnosis = Lifeguard.Isolation.isolate ctx ~src:o ~dst:e in
  Bgp.Network.fail_link w.net ~a:e ~b:d;
  Bgp.Network.crash_node w.net c;
  converge w;
  List.iter
    (fun blamed ->
      let diagnosis = { diagnosis with Lifeguard.Isolation.blame = Blamed_as blamed } in
      let fresh =
        Lifeguard.Decide.decide decide_config w.graph ~origin:o ~diagnosis ~outage_age:400.0
      in
      match
        Plan.Cache.lookup cache w.graph ~now:0.0 ~target:e ~diagnosis ~outage_age:400.0
          ~breaker_open:no_breaker
      with
      | None -> Alcotest.failf "the plan blaming %s must still hit" (Asn.to_string blamed)
      | Some v ->
          Alcotest.(check string)
            (Printf.sprintf "verdict blaming %s" (Asn.to_string blamed))
            (verdict_str fresh) (verdict_str v))
    [ a; b ];
  Alcotest.(check int) "both lookups hit" 2 (Plan.Cache.hits cache);
  Alcotest.(check int) "nothing invalidated" 0 (Plan.Cache.invalidations cache);
  Alcotest.(check int) "no plan dropped" size_before (cache_size cache)

(* The demand-plan oracle on a generated world: for every target and
   every candidate blame, in the reverse and bidirectional classes with
   and without reversal evidence, a cold cache misses once and then
   serves the verdict a fresh decision computes at any age past the
   gate. *)
let test_demand_plan_oracle () =
  let gen = Topology.Topo_gen.generate ~params:(Topology.Topo_gen.sized 60) ~seed:11 () in
  let graph = gen.Topology.Topo_gen.graph in
  let origin = List.hd gen.Topology.Topo_gen.stub_list in
  let cache =
    Plan.Cache.create ~config:decide_config ~origin ~paths:(Bgp.Path_store.create ()) ()
  in
  let gate = decide_config.Lifeguard.Decide.min_outage_age in
  let checked = ref 0 and poisons = ref 0 and hopeless = ref 0 in
  List.iter
    (fun target ->
      if not (Asn.equal target origin) then
        List.iter
          (fun blamed ->
            List.iter
              (fun (direction, working_path) ->
                let diagnosis =
                  {
                    Lifeguard.Isolation.src = origin;
                    dst = target;
                    direction;
                    blame = Lifeguard.Isolation.Blamed_as blamed;
                    suspects = [];
                    working_path;
                    traceroute_blame = None;
                    probes_used = 0;
                    elapsed = 0.0;
                  }
                in
                let lookup age =
                  Plan.Cache.lookup cache graph ~now:0.0 ~target ~diagnosis ~outage_age:age
                    ~breaker_open:no_breaker
                in
                (match lookup gate with
                | None -> ()
                | Some _ -> Alcotest.fail "a cold class must miss");
                List.iter
                  (fun age ->
                    let fresh =
                      Lifeguard.Decide.decide decide_config graph ~origin ~diagnosis
                        ~outage_age:age
                    in
                    match lookup age with
                    | None -> Alcotest.fail "a demand-planned class must hit"
                    | Some v ->
                        incr checked;
                        (match v with
                        | Lifeguard.Decide.Poison _ -> incr poisons
                        | Lifeguard.Decide.Hopeless _ -> incr hopeless
                        | Lifeguard.Decide.Wait _ -> ());
                        Alcotest.(check string)
                          (Printf.sprintf "%s blaming %s at age %.0f" (Asn.to_string target)
                             (Asn.to_string blamed) age)
                          (verdict_str fresh) (verdict_str v))
                  [ gate; 3600.0 ])
              [
                (Lifeguard.Isolation.Reverse_failure, None);
                (Lifeguard.Isolation.Reverse_failure, Some [ target; origin ]);
                (Lifeguard.Isolation.Bidirectional, None);
                (Lifeguard.Isolation.Bidirectional, Some [ target; origin ]);
              ])
          (Plan.Planner.candidate_blames graph ~origin ~target))
    (Topology.As_graph.as_list graph);
  Alcotest.(check bool) "some verdicts poison" true (!poisons > 0);
  Alcotest.(check bool) "some verdicts are hopeless" true (!hopeless > 0);
  Alcotest.(check int) "every check was a hit" !checked (Plan.Cache.hits cache)

(* [Planner.candidate_blames] from fresh, unmemoized searches: the
   intermediates of both directions' paths, and of both directions'
   paths around each of those. *)
let fresh_candidate_blames graph ~origin ~target =
  let mids ~src ~dst ~avoiding =
    match Topology.Splice.(policy_path (context ())) graph ~src ~dst ~avoiding with
    | None -> []
    | Some p -> List.filter (fun a -> not (Asn.equal a origin || Asn.equal a target)) p
  in
  let both avoiding =
    mids ~src:target ~dst:origin ~avoiding @ mids ~src:origin ~dst:target ~avoiding
  in
  let primaries = both Asn.Set.empty in
  Asn.Set.elements
    (Asn.Set.of_list
       (primaries @ List.concat_map (fun mid -> both (Asn.Set.singleton mid)) primaries))

(* The planner oracle on generated worlds: for every target, the
   candidate blames equal those of fresh searches, and for every blame
   the feasibility bit the offline sweep seeds for the reverse class
   equals a fresh [Splice.policy_reachable] around the blamed AS. Blames
   on the unconstrained target-to-origin path take the memoized
   avoid-query, blames off it the shortcut; both must occur, as must
   feasible and infeasible bits. *)
let test_planner_oracle () =
  let on_path = ref 0 and off_path = ref 0 and feasible = ref 0 and infeasible = ref 0 in
  List.iter
    (fun seed ->
      let gen = Topology.Topo_gen.generate ~params:(Topology.Topo_gen.sized 60) ~seed () in
      let graph = gen.Topology.Topo_gen.graph in
      let origin = List.hd gen.Topology.Topo_gen.stub_list in
      let rplan = Lifeguard.Remediate.plan ~sentinel ~origin ~production () in
      let targets = Topology.As_graph.as_list graph in
      let seed_map =
        Plan.Planner.build ~graph ~store:(Bgp.Path_store.create ()) ~plan:rplan ~targets
      in
      List.iter
        (fun target ->
          if not (Asn.equal target origin) then begin
            let blames = Plan.Planner.candidate_blames graph ~origin ~target in
            Alcotest.(check (list int))
              (Printf.sprintf "seed %d: blames for %s" seed (Asn.to_string target))
              (List.map Asn.to_int (fresh_candidate_blames graph ~origin ~target))
              (List.map Asn.to_int blames);
            let free =
              Option.value ~default:[]
                (Topology.Splice.(policy_path (context ())) graph ~src:target ~dst:origin
                   ~avoiding:Asn.Set.empty)
            in
            List.iter
              (fun blamed ->
                if List.exists (Asn.equal blamed) free then incr on_path else incr off_path;
                let cls =
                  {
                    Plan.Failure_class.blamed;
                    direction = Lifeguard.Isolation.Reverse_failure;
                    reversal = false;
                  }
                in
                let fresh =
                  Topology.Splice.(policy_reachable (context ())) graph ~src:target
                    ~dst:origin
                    ~avoiding:(Asn.Set.singleton blamed)
                in
                if fresh then incr feasible else incr infeasible;
                match Plan.Plan_store.find seed_map ~target ~cls with
                | None ->
                    Alcotest.failf "seed %d: no plan for %s blaming %s" seed
                      (Asn.to_string target) (Asn.to_string blamed)
                | Some remedy ->
                    Alcotest.(check bool)
                      (Printf.sprintf "seed %d: %s around %s" seed (Asn.to_string target)
                         (Asn.to_string blamed))
                      fresh (Plan.Plan_store.feasible remedy))
              blames
          end)
        targets)
    [ 3; 11; 29 ];
  Alcotest.(check bool) "some blames on the unconstrained path" true (!on_path > 0);
  Alcotest.(check bool) "some blames off it" true (!off_path > 0);
  Alcotest.(check bool) "some bits feasible" true (!feasible > 0);
  Alcotest.(check bool) "some bits infeasible" true (!infeasible > 0)

(* Breaker trips: a plan poisoning a breaker-open AS must not be served —
   the entry is dropped, the lookup misses, and the fresh decision path
   (which refuses at the breaker) takes over. *)
let test_no_service_when_breaker_open () =
  let w, rplan, ctx = plan_world () in
  let cache = seeded_cache w rplan in
  Dataplane.Failure.add w.failures reverse_failure_spec;
  let diagnosis = Lifeguard.Isolation.isolate ctx ~src:o ~dst:e in
  let size_before = cache_size cache in
  (match
     Plan.Cache.lookup cache w.graph ~now:0.0 ~target:e ~diagnosis ~outage_age:400.0
       ~breaker_open:(fun x -> Asn.equal x a)
   with
  | None -> ()
  | Some _ -> Alcotest.fail "a plan against a breaker-open AS must not be served");
  Alcotest.(check int) "no hit" 0 (Plan.Cache.hits cache);
  Alcotest.(check int) "counted as invalidation" 1 (Plan.Cache.invalidations cache);
  Alcotest.(check bool) "plans poisoning the open AS were dropped" true
    (cache_size cache < size_before)

(* Watchdog divergence, end to end: the poison is served from the plan,
   never propagates (the O->B wire is down), the watchdog rolls it back —
   and the cache must demote the blamed AS back to compute-fresh. *)
let test_watchdog_divergence_demotes () =
  let w = fig2_world () in
  announce_all_infrastructure w;
  let rplan = Lifeguard.Remediate.plan ~sentinel ~origin:o ~production () in
  let atlas = Measurement.Atlas.create () in
  let responsiveness = Measurement.Responsiveness.create () in
  let decide = { Lifeguard.Decide.min_outage_age = 200.0 } in
  let store = Bgp.Network.path_store w.net in
  let seed = Plan.Planner.build ~graph:w.graph ~store ~plan:rplan ~targets:[ e ] in
  let cache = Plan.Cache.create ~seed ~config:decide ~origin:o ~paths:store () in
  let hooks =
    {
      Lifeguard.Orchestrator.no_hooks with
      Lifeguard.Orchestrator.plan_consult =
        Some
          (fun ~target ~diagnosis ~outage_age ~breaker_open ->
            Plan.Cache.lookup cache w.graph ~now:(Sim.Engine.now w.engine) ~target ~diagnosis
              ~outage_age ~breaker_open);
      plan_demote = Some (fun ~poison ~reason -> Plan.Cache.demote cache ~poison ~reason);
    }
  in
  let config =
    {
      Lifeguard.Orchestrator.default_config with
      Lifeguard.Orchestrator.decide;
      announce_spacing = 1800.0;
    }
  in
  let orc =
    Lifeguard.Orchestrator.create ~config ~hooks ~env:w.probe ~atlas ~responsiveness ~plan:rplan
      ~vantage_points:[ d; c ] ()
  in
  converge w;
  Lifeguard.Orchestrator.watch orc ~targets:[ e ];
  Sim.Engine.run ~until:600.0 w.engine;
  Dataplane.Failure.add w.failures reverse_failure_spec;
  Bgp.Network.set_link_faults w.net
    (Some (fun ~from ~to_ -> if Asn.equal from o && Asn.equal to_ b then `Drop else `Deliver));
  Sim.Engine.run ~until:9000.0 w.engine;
  Alcotest.(check bool) "the poison verdict was served from the plan" true
    (Plan.Cache.hits cache > 0);
  Alcotest.(check int) "the watchdog rolled the poison back" 1
    (Lifeguard.Orchestrator.rollback_count orc);
  Alcotest.(check int) "divergence demoted the plan" 1 (Plan.Cache.demotions cache);
  (* The demotion log, oldest first, is the [log=] field of the cache's
     snapshot line: one [asn:reason] entry. *)
  (let capture = Plan.Cache.capture cache in
   match List.find_opt (String.starts_with ~prefix:"log=") (String.split_on_char ' ' capture) with
   | None -> Alcotest.failf "no log= field in %S" capture
   | Some field -> (
       match String.split_on_char ',' (String.sub field 4 (String.length field - 4)) with
       | [ entry ] ->
           Alcotest.(check bool) "A was demoted, with a reason" true
             (String.starts_with ~prefix:"AS30:" entry && String.length entry > 5)
       | entries -> Alcotest.failf "expected one demotion, got %d" (List.length entries)));
  (* Demoted classes are never served again: a direct lookup for the
     blamed class must miss even though the class was once planned. *)
  let diagnosis =
    {
      Lifeguard.Isolation.src = o;
      dst = e;
      direction = Lifeguard.Isolation.Reverse_failure;
      blame = Lifeguard.Isolation.Blamed_as a;
      suspects = [];
      working_path = None;
      traceroute_blame = None;
      probes_used = 0;
      elapsed = 0.0;
    }
  in
  match
    Plan.Cache.lookup cache w.graph ~now:9000.0 ~target:e ~diagnosis ~outage_age:400.0
      ~breaker_open:no_breaker
  with
  | None -> ()
  | Some _ -> Alcotest.fail "a demoted plan must not be served"

(* The plan experiment's rendered tables are a pure function of
   (config, targets, seed): byte-identical at any --jobs. *)
let small_config =
  {
    Experiments.Plan_study.default_config with
    Fleet.Service.target_count = 10;
    duration = 10800.0;
  }

let render_tables config ~jobs =
  String.concat "\n"
    (List.map Stats.Table.render
       (Experiments.Plan_study.to_tables
          (Experiments.Plan_study.run ~config ~targets:20 ~jobs ~seed:7 ())))

let test_tables_jobs_invariant () =
  let base = render_tables small_config ~jobs:1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "tables at jobs=%d" jobs)
        base
        (render_tables small_config ~jobs))
    [ 2; 4 ]

(* Both arms run as one trial list, split back per arm: each must be
   exactly the fleet study with planning on or off, so a split off by
   one world fails here. *)
let test_arms_are_fleet_studies () =
  let r = Experiments.Plan_study.run ~config:small_config ~targets:20 ~jobs:2 ~seed:7 () in
  let alone planning =
    Experiments.Fleet_study.run ~config:{ small_config with planning } ~targets:20 ~jobs:1
      ~seed:7 ()
  in
  List.iter
    (fun (name, planning, arm) ->
      Alcotest.(check int) (name ^ ": worlds") 2 arm.Experiments.Fleet_study.shards;
      Alcotest.(check bool)
        (name ^ " = its fleet study alone")
        true
        (compare (alone planning) arm = 0))
    [
      ("planned", true, r.Experiments.Plan_study.planned);
      ("computed", false, r.Experiments.Plan_study.computed);
    ]

(* The headline claims on the recurring-outage workload, pinned at the
   benchmark's default scale: most lookups are served from plan, and the
   planned arm's median reroute is strictly faster than computing every
   remediation from scratch. *)
let test_recurring_workload_wins () =
  let r = Experiments.Plan_study.run ~jobs:2 ~seed:42 () in
  let planned = r.Experiments.Plan_study.planned in
  let computed = r.Experiments.Plan_study.computed in
  let hits = planned.Experiments.Fleet_study.plan_hits in
  Alcotest.(check bool) "hit rate >= 60%" true
    (hits > 0
    && float_of_int hits
       >= 0.6 *. float_of_int (hits + planned.Experiments.Fleet_study.plan_misses));
  let median = function
    | [] -> Alcotest.fail "expected confirmed reroutes"
    | samples -> Stats.Ecdf.quantile (Stats.Ecdf.of_samples (Array.of_list samples)) 0.5
  in
  Alcotest.(check bool) "planned median reroute strictly faster" true
    (median planned.Experiments.Fleet_study.time_to_confirm
    < median computed.Experiments.Fleet_study.time_to_confirm)

let suite =
  [
    Alcotest.test_case "planner: fig2 failure map" `Quick test_planner_failure_map;
    Alcotest.test_case "planner: selective poison only for a provider" `Quick
      test_selective_only_for_providers;
    Alcotest.test_case "hit path is byte-identical to compute-fresh" `Quick
      test_hit_byte_identical;
    Alcotest.test_case "miss demand-plans, then hits" `Quick test_miss_demand_plans_then_hits;
    Alcotest.test_case "plans survive link failure and router crash" `Quick
      test_plans_survive_faults;
    Alcotest.test_case "demand-planned verdicts match a fresh decision" `Quick
      test_demand_plan_oracle;
    Alcotest.test_case "seeded feasibility bits match a fresh search" `Quick test_planner_oracle;
    Alcotest.test_case "breaker-open plans are not served" `Quick
      test_no_service_when_breaker_open;
    Alcotest.test_case "watchdog divergence demotes to compute-fresh" `Quick
      test_watchdog_divergence_demotes;
    Alcotest.test_case "experiment tables: jobs invariant" `Quick test_tables_jobs_invariant;
    Alcotest.test_case "plan study: arms are fleet studies" `Quick test_arms_are_fleet_studies;
    Alcotest.test_case "recurring workload: hit rate + faster reroute" `Quick
      test_recurring_workload_wins;
  ]
