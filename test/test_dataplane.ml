(* Forwarding, failure injection and the probe vocabulary — including the
   paper's misleading-traceroute scenario. *)

open Net
open Helpers

let ready_world () =
  let w = fig2_world () in
  announce_all_infrastructure w;
  Bgp.Network.announce w.net ~origin:o ~prefix:production ();
  converge w;
  w

let infra = Dataplane.Forward.infrastructure_prefix
let addr w x = Dataplane.Forward.probe_address w.net x

let test_basic_delivery () =
  let w = ready_world () in
  let walk = Dataplane.Forward.walk w.net w.failures ~src:e ~dst:(addr w o) in
  Alcotest.(check bool) "delivered" true (walk.Dataplane.Forward.outcome = Dataplane.Forward.Delivered);
  Alcotest.(check (list int)) "AS-level path" [ 60; 30; 20; 10 ]
    (List.map Asn.to_int (Dataplane.Forward.as_path_of_walk walk));
  Alcotest.(check bool) "delivers convenience" true
    (Dataplane.Forward.delivers w.net w.failures ~src:e ~dst:(addr w o))

let test_no_route () =
  let w = fig2_world () in
  (* Nothing announced: no FIB entries anywhere. *)
  let walk = Dataplane.Forward.walk w.net w.failures ~src:e ~dst:(addr w o) in
  match walk.Dataplane.Forward.outcome with
  | Dataplane.Forward.No_route at -> Alcotest.(check int) "stops at source" 60 (Asn.to_int at)
  | _ -> Alcotest.fail "expected No_route"

let test_node_failure_blocks () =
  let w = ready_world () in
  Dataplane.Failure.add w.failures (Dataplane.Failure.spec (Dataplane.Failure.Node a));
  let walk = Dataplane.Forward.walk w.net w.failures ~src:e ~dst:(addr w o) in
  (match walk.Dataplane.Forward.outcome with
  | Dataplane.Forward.Dropped { at; _ } -> Alcotest.(check int) "dropped at A" 30 (Asn.to_int at)
  | _ -> Alcotest.fail "expected Dropped");
  Dataplane.Failure.remove w.failures (Dataplane.Failure.spec (Dataplane.Failure.Node a));
  Alcotest.(check bool) "removal heals" true
    (Dataplane.Forward.delivers w.net w.failures ~src:e ~dst:(addr w o))

let test_directional_link_failure () =
  let w = ready_world () in
  Dataplane.Failure.add w.failures
    (Dataplane.Failure.spec (Dataplane.Failure.Link_dir (e, a)));
  Alcotest.(check bool) "e->a traversal dies" false
    (Dataplane.Forward.delivers w.net w.failures ~src:e ~dst:(addr w o));
  Alcotest.(check bool) "a->e traversal fine" true
    (Dataplane.Forward.delivers w.net w.failures ~src:o ~dst:(addr w e))

let test_toward_scoping () =
  let w = ready_world () in
  (* A drops only packets toward O's infrastructure space. *)
  Dataplane.Failure.add w.failures
    (Dataplane.Failure.spec ~toward:(infra o) (Dataplane.Failure.Node a));
  Alcotest.(check bool) "toward O dies" false
    (Dataplane.Forward.delivers w.net w.failures ~src:e ~dst:(addr w o));
  Alcotest.(check bool) "toward F unaffected (also through A)" true
    (Dataplane.Forward.delivers w.net w.failures ~src:e ~dst:(addr w f))

let test_source_blocked_by_own_failure () =
  let w = ready_world () in
  Dataplane.Failure.add w.failures
    (Dataplane.Failure.spec ~toward:(infra o) (Dataplane.Failure.Node a));
  (* A itself cannot reach O: its packets die on departure. *)
  Alcotest.(check bool) "A cannot reach O" false
    (Dataplane.Forward.delivers w.net w.failures ~src:a ~dst:(addr w o))

let test_ping_requires_both_directions () =
  let w = ready_world () in
  (* Reverse-only failure: traffic toward O's infra dies inside A. Pings
     from O to E fail (reply crosses A), pings from O to D succeed (D's
     path back avoids A). *)
  Dataplane.Failure.add w.failures
    (Dataplane.Failure.spec ~toward:(infra o) (Dataplane.Failure.Node a));
  Alcotest.(check bool) "ping O->E fails on the reply" false
    (Dataplane.Probe.ping w.probe ~src:o ~dst:(addr w e));
  Alcotest.(check bool) "ping O->D fine" true (Dataplane.Probe.ping w.probe ~src:o ~dst:(addr w d));
  (* Forward direction from O still works: a spoofed ping sourced at O
     with D's address draws the reply to D instead. *)
  Alcotest.(check bool) "spoofed ping O->E (reply to D)" true
    (Dataplane.Probe.spoofed_ping w.probe ~sender:o ~spoof_src:(addr w d) ~dst:(addr w e))

let test_misleading_traceroute () =
  (* The Fig. 4 situation, transplanted onto Fig. 2's topology: O pings E;
     the reverse path E->A->...->O fails inside A. O's own traceroute
     toward E shows hops up to... every hop whose reply crosses A is
     silent, so the trace *looks* like a forward problem near the horizon
     even though the forward path is fine. *)
  let w = ready_world () in
  Dataplane.Failure.add w.failures
    (Dataplane.Failure.spec ~toward:(infra o) (Dataplane.Failure.Node a));
  let trace = Dataplane.Probe.traceroute w.probe ~src:o ~dst:(addr w e) in
  Alcotest.(check bool) "forward walk completed" true
    (trace.Dataplane.Probe.outcome = Dataplane.Forward.Delivered);
  Alcotest.(check bool) "but destination seems unreachable" false trace.Dataplane.Probe.reached;
  (* Hops before A respond; A and E (reply via A) do not. *)
  let responded_ases =
    List.filter_map
      (fun th ->
        if th.Dataplane.Probe.responded then
          Some (Asn.to_int th.Dataplane.Probe.hop.Dataplane.Forward.asn)
        else None)
      trace.Dataplane.Probe.hops
  in
  Alcotest.(check (list int)) "only O and B respond" [ 10; 20 ] responded_ases;
  Alcotest.(check bool) "last responsive AS is B" true
    (Dataplane.Probe.last_responsive_as trace = Some b);
  Alcotest.(check (list int)) "visible path" [ 10; 20 ] (List.map Asn.to_int (Dataplane.Probe.visible_path trace))

let test_dropped_hop_does_not_respond () =
  let w = ready_world () in
  (* Hard forward failure at A for traffic toward E: the trace stops at A
     and A itself cannot have answered. *)
  Dataplane.Failure.add w.failures
    (Dataplane.Failure.spec ~toward:(infra e) (Dataplane.Failure.Node a));
  let trace = Dataplane.Probe.traceroute w.probe ~src:o ~dst:(addr w e) in
  (match trace.Dataplane.Probe.outcome with
  | Dataplane.Forward.Dropped { at; _ } -> Alcotest.(check int) "dropped at A" 30 (Asn.to_int at)
  | _ -> Alcotest.fail "expected drop");
  let last = List.rev trace.Dataplane.Probe.hops |> List.hd in
  Alcotest.(check bool) "dying hop is silent" false last.Dataplane.Probe.responded

let test_ping_from_sentinel_space () =
  let w = ready_world () in
  Bgp.Network.announce w.net ~origin:o ~prefix:sentinel ();
  converge w;
  let sentinel_src = Prefix.nth_address sentinel 1 in
  Alcotest.(check bool) "replies can route to the sentinel" true
    (Dataplane.Probe.ping_from w.probe ~src:o ~src_ip:sentinel_src ~dst:(addr w e))

let test_reverse_traceroute () =
  let w = ready_world () in
  (* Measure E's path back to O, helped by vantage point D. *)
  (match
     Dataplane.Probe.reverse_traceroute w.probe ~vantage_points:[ d ] ~from_:e
       ~to_ip:(addr w o)
   with
  | Some trace ->
      Alcotest.(check bool) "reached" true trace.Dataplane.Probe.reached;
      Alcotest.(check (list int)) "reverse path" [ 60; 30; 20; 10 ]
        (List.map
           (fun th -> Asn.to_int th.Dataplane.Probe.hop.Dataplane.Forward.asn)
           trace.Dataplane.Probe.hops)
  | None -> Alcotest.fail "reverse traceroute should be feasible");
  (* Without any vantage point able to reach E, it is infeasible. *)
  Dataplane.Failure.add w.failures
    (Dataplane.Failure.spec ~toward:(infra e) (Dataplane.Failure.Node a));
  Alcotest.(check bool) "infeasible when no VP reaches the target" true
    (Dataplane.Probe.reverse_traceroute w.probe ~vantage_points:[ o; f ] ~from_:e
       ~to_ip:(addr w o)
    = None)

let test_probe_accounting () =
  let w = ready_world () in
  Dataplane.Probe.reset_probe_count w.probe;
  ignore (Dataplane.Probe.ping w.probe ~src:o ~dst:(addr w e));
  Alcotest.(check int) "ping costs 1" 1 w.probe.Dataplane.Probe.probes_sent;
  ignore (Dataplane.Probe.traceroute w.probe ~src:o ~dst:(addr w e));
  Alcotest.(check bool) "traceroute costs per hop" true (w.probe.Dataplane.Probe.probes_sent > 2)

let test_failure_spec_equality_and_heal () =
  let w = ready_world () in
  let spec = Dataplane.Failure.spec ~toward:(infra o) (Dataplane.Failure.Link (a, e)) in
  Dataplane.Failure.inject w.net w.failures spec;
  Alcotest.(check bool) "active" false
    (Dataplane.Forward.delivers w.net w.failures ~src:e ~dst:(addr w o));
  (* Link scope is undirected for identity: removing with flipped
     endpoints works. *)
  Dataplane.Failure.heal w.net w.failures
    (Dataplane.Failure.spec ~toward:(infra o) (Dataplane.Failure.Link (e, a)));
  Alcotest.(check bool) "healed" true
    (Dataplane.Forward.delivers w.net w.failures ~src:e ~dst:(addr w o))

let test_control_and_data_failure () =
  let w = ready_world () in
  let spec =
    Dataplane.Failure.spec ~mode:Dataplane.Failure.Control_and_data
      (Dataplane.Failure.Link (e, a))
  in
  Dataplane.Failure.inject w.net w.failures spec;
  converge w;
  (* BGP saw the failure: E reroutes via D and the data plane follows. *)
  check_path "E reroutes" [ 50; 40; 20; 10 ]
    (path_of_best (Bgp.Network.best_route w.net e production));
  Alcotest.(check bool) "data plane delivers on the new path" true
    (Dataplane.Forward.delivers w.net w.failures ~src:e ~dst:(addr w o));
  Dataplane.Failure.heal w.net w.failures spec;
  converge w;
  check_path "E back on the short path" [ 30; 20; 10 ]
    (path_of_best (Bgp.Network.best_route w.net e production))

(* ---- The verdict walk and the reachability memo ---- *)

module Sc = Workloads.Scenarios

let walk_delivers net failures ~src ~dst =
  match (Dataplane.Forward.walk net failures ~src ~dst).Dataplane.Forward.outcome with
  | Dataplane.Forward.Delivered -> true
  | Dataplane.Forward.No_route _ | Dataplane.Forward.Loop | Dataplane.Forward.Dropped _ -> false

let clear_failures set = List.iter (Dataplane.Failure.remove set) (Dataplane.Failure.active set)

(* The AS that answers probes to [ip]: the router's owner, else the AS
   originating the covering prefix. *)
let responder (bed : Sc.testbed) ip =
  match Topology.As_graph.owner_of_address bed.graph ip with
  | Some asn -> Some asn
  | None -> Option.map snd (Bgp.Network.owner_of_address bed.net ip)

(* [Probe.ping_from] recomputed from full walks, bypassing the memo. *)
let fresh_ping (bed : Sc.testbed) ~src ~src_ip ~dst =
  walk_delivers bed.net bed.failures ~src ~dst
  &&
  match responder bed dst with
  | Some r -> walk_delivers bed.net bed.failures ~src:r ~dst:src_ip
  | None -> false

(* A small BGP-Mux world with every AS's infrastructure announced and
   the baseline converged. *)
let mux_world ?shards ?fib_install_delay seed =
  let m = Sc.bgpmux ~ases:60 ?shards ?fib_install_delay ~seed () in
  Lifeguard.Remediate.announce_baseline m.Sc.bed.Sc.net m.Sc.plan;
  Bgp.Network.run_until_quiet m.Sc.bed.Sc.net;
  m

let random_spec rng (bed : Sc.testbed) ~mode =
  let ases = Array.of_list (Topology.As_graph.as_list bed.graph) in
  let x = Prng.pick rng ases in
  let scope =
    match Prng.int rng 3 with
    | 0 -> Dataplane.Failure.Node x
    | k ->
        let y, _ = Prng.pick_list rng (Topology.As_graph.neighbors bed.graph x) in
        if k = 1 then Dataplane.Failure.Link (x, y) else Dataplane.Failure.Link_dir (x, y)
  in
  let toward =
    match Prng.int rng 3 with
    | 0 -> None
    | 1 -> Some Sc.sentinel_prefix
    | _ -> Some (infra (Prng.pick rng ases))
  in
  Dataplane.Failure.spec ~mode ?toward scope

(* Sources and destinations to probe between: the origin and a few
   vantage points, toward router and production addresses. *)
let probe_pairs (m : Sc.mux) =
  let net = m.Sc.bed.Sc.net in
  let vps = List.filteri (fun i _ -> i < 5) m.Sc.bed.Sc.vantage_points in
  let srcs = m.Sc.origin :: vps in
  let dsts =
    Prefix.nth_address Sc.production_prefix 1
    :: List.map (Dataplane.Forward.probe_address net) (m.Sc.providers @ srcs)
  in
  List.concat_map (fun s -> List.map (fun d -> (s, d)) dsts) srcs

let qcheck_fixed test = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |]) test

let prop_delivers_matches_walk =
  let worlds = Array.init 3 (fun i -> lazy (mux_world (i + 1))) in
  qcheck_fixed
    (QCheck.Test.make ~name:"delivers = (walk outcome = Delivered)" ~count:40
       QCheck.(pair (int_bound 2) (int_bound 1_000_000))
       (fun (wi, seed) ->
         let m = Lazy.force worlds.(wi) in
         let bed = m.Sc.bed in
         let rng = Prng.create ~seed in
         clear_failures bed.failures;
         for _ = 1 to Prng.int rng 5 do
           Dataplane.Failure.add bed.failures (random_spec rng bed ~mode:Dataplane.Failure.Data_only)
         done;
         let ok =
           List.for_all
             (fun (src, dst) ->
               Bool.equal
                 (Dataplane.Forward.delivers bed.net bed.failures ~src ~dst)
                 (walk_delivers bed.net bed.failures ~src ~dst))
             (probe_pairs m)
         in
         clear_failures bed.failures;
         ok))

(* One step of the interleaved script: control-plane changes, failure
   changes and partial runs that stop mid-convergence (with FIB-install
   latency the data plane trails the control plane). *)
let script_step rng (m : Sc.mux) =
  let bed = m.Sc.bed in
  let net = bed.Sc.net in
  match Prng.int rng 8 with
  | 0 ->
      let transit = Topology.Topo_gen.transit_ases (Option.get bed.Sc.gen) in
      Lifeguard.Remediate.poison net m.Sc.plan ~target:(Prng.pick_list rng transit)
  | 1 -> Lifeguard.Remediate.unpoison net m.Sc.plan
  | 2 | 3 ->
      let spec =
        random_spec rng bed
          ~mode:
            (if Prng.int rng 2 = 0 then Dataplane.Failure.Data_only
             else Dataplane.Failure.Control_and_data)
      in
      Dataplane.Failure.inject net bed.failures spec
  | 4 -> (
      match Dataplane.Failure.active bed.failures with
      | [] -> ()
      | specs -> Dataplane.Failure.heal net bed.failures (Prng.pick_list rng specs))
  | 5 ->
      let x = Prng.pick_list rng m.Sc.providers in
      if Prng.int rng 2 = 0 then Bgp.Network.fail_link net ~a:m.Sc.origin ~b:x
      else Bgp.Network.restore_link net ~a:m.Sc.origin ~b:x
  | 6 -> Bgp.Network.run_until_quiet net
  | _ ->
      for _ = 1 to 1 + Prng.int rng 600 do
        ignore (Sim.Engine.step bed.Sc.engine)
      done

(* Forces a forwarding loop on purpose, as a FIB that trails its loc-RIB
   can hold one: the first transit hop of a delivered probe walk gets a
   FIB entry for the walk's destination that points back at the walk's
   source. The packet still reaches that hop, whatever the failures, and
   then loops. Returns the step that puts the hop's entry back. *)
let force_loop (m : Sc.mux) pairs =
  let net = m.Sc.bed.Sc.net in
  let rec pick = function
    | [] -> Alcotest.fail "no delivered probe walk leaves its source"
    | (src, dst) :: rest -> (
        let walk = Dataplane.Forward.walk net m.Sc.bed.Sc.failures ~src ~dst in
        match (walk.Dataplane.Forward.outcome, walk.Dataplane.Forward.hops) with
        | Dataplane.Forward.Delivered, _ :: { Dataplane.Forward.asn = hop; _ } :: _ -> (
            match Bgp.Network.fib_lookup net hop dst with
            | Some (prefix, entry) when not (Bgp.Route.is_local entry) -> (src, hop, prefix, entry)
            | Some _ | None -> pick rest)
        | _ -> pick rest)
  in
  let src, hop, prefix, entry = pick pairs in
  let sp = Bgp.Network.speaker net hop in
  Bgp.Speaker.install_fib sp prefix (Some { entry with Bgp.Route.neighbor = src });
  fun () -> Bgp.Speaker.install_fib sp prefix (Some entry)

(* Runs the script and checks, after every step, that every memoized
   ping verdict is the fresh walks' verdict, and that [delivers] agrees
   with [walk] mid-convergence too. The first step forces a loop and the
   second undoes it before its own scripted change, so looping walks are
   seen whatever the draws. Returns the number of disagreements, of
   checks and of looping walks seen. *)
let memo_script ?shards seed =
  let m = mux_world ?shards ~fib_install_delay:20.0 seed in
  let bed = m.Sc.bed in
  let src_ip = Dataplane.Forward.probe_address bed.Sc.net in
  let rng = Prng.create ~seed in
  let pairs = probe_pairs m in
  let checks = ref 0 and wrong = ref 0 and loops = ref 0 in
  let undo = ref ignore in
  for step = 1 to 40 do
    if step = 1 then undo := force_loop m pairs
    else begin
      !undo ();
      undo := ignore;
      script_step rng m
    end;
    List.iter
      (fun (src, dst) ->
        let walk = Dataplane.Forward.walk bed.net bed.failures ~src ~dst in
        let delivered =
          match walk.Dataplane.Forward.outcome with
          | Dataplane.Forward.Delivered -> true
          | Dataplane.Forward.Loop ->
              incr loops;
              false
          | Dataplane.Forward.No_route _ | Dataplane.Forward.Dropped _ -> false
        in
        incr checks;
        if not (Bool.equal delivered (Dataplane.Forward.delivers bed.net bed.failures ~src ~dst))
        then incr wrong)
      pairs;
    (* Twice per state: the second round is answered from the memo. *)
    for round = 1 to 2 do
      List.iteri
        (fun i (src, dst) ->
          let fresh () = fresh_ping bed ~src ~src_ip:(src_ip src) ~dst in
          let memo () = Dataplane.Probe.ping_from bed.probe ~src ~src_ip:(src_ip src) ~dst in
          (* Alternate which side runs first; the memo goes first right
             after each step, before anything has synced the shards. *)
          let agree =
            if (i + round) land 1 = 1 then Bool.equal (memo ()) (fresh ())
            else Bool.equal (fresh ()) (memo ())
          in
          incr checks;
          if not agree then incr wrong)
        pairs
    done
  done;
  (!wrong, !checks, !loops)

let test_memo_script shards () =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let results = List.map (fun seed -> memo_script ?shards seed) [ 11; 12; 13; 14; 15 ] in
  let snap = Obs.Metrics.snapshot () in
  Obs.Metrics.disable ();
  Obs.Metrics.reset ();
  List.iteri
    (fun i (wrong, checks, _) ->
      Alcotest.(check int) (Printf.sprintf "script %d: memo <> fresh walk in %d checks" i checks) 0 wrong)
    results;
  List.iteri
    (fun i (_, _, loops) ->
      Alcotest.(check bool)
        (Printf.sprintf "script %d: transient loops exercised (%d)" i loops)
        true (loops > 0))
    results;
  (* The script both reuses verdicts and invalidates them. *)
  let c = Obs.Metrics.counter_value snap in
  Alcotest.(check bool) "memo hits" true (c "dataplane.memo_hits" > 0);
  Alcotest.(check bool) "memo flushes" true (c "dataplane.memo_flushes" > 30)

(* The same script with the FIB trailing the loc-RIB: at every AS and
   probe address (production, sentinel-only and infrastructure),
   [Network.fib_lookup] must be the longest prefix of the world whose
   slot at that AS holds an installed entry ([Speaker.fib_entry]), and
   [fib_find] that entry. Returns the number of disagreements and of
   (AS, prefix) FIB entries seen trailing the loc-RIB. *)
let fib_script ?shards seed =
  let m = mux_world ?shards ~fib_install_delay:20.0 seed in
  let bed = m.Sc.bed in
  let net = bed.Sc.net in
  let ases = Topology.As_graph.as_list bed.Sc.graph in
  let pool = Sc.production_prefix :: Sc.sentinel_prefix :: List.map infra ases in
  let addresses =
    Prefix.nth_address Sc.production_prefix 1
    :: Prefix.nth_address Sc.sentinel_prefix 1
    :: List.map (Dataplane.Forward.probe_address net) (m.Sc.origin :: m.Sc.providers)
  in
  let rng = Prng.create ~seed in
  let wrong = ref 0 and trailing = ref 0 in
  for _ = 1 to 40 do
    script_step rng m;
    (* A control-plane read catches every shard up before the raw reads. *)
    ignore (Bgp.Network.message_count net);
    List.iter
      (fun x ->
        let sp = Bgp.Network.speaker net x in
        let installed =
          List.filter_map
            (fun p ->
              let fib = Bgp.Speaker.fib_entry sp p in
              if not (Option.equal ( == ) fib (Bgp.Speaker.best sp p)) then incr trailing;
              Option.map (fun e -> (p, e)) fib)
            pool
        in
        List.iter
          (fun ip ->
            let want = longest_match installed ip in
            let agree =
              Option.equal
                (fun (p, e) (q, f) -> Prefix.equal p q && e == f)
                want (Bgp.Network.fib_lookup net x ip)
              && Option.equal ( == ) (Option.map snd want) (Bgp.Network.fib_find net x ip)
            in
            if not agree then incr wrong)
          addresses)
      ases
  done;
  (!wrong, !trailing)

let test_fib_script shards () =
  List.iter
    (fun seed ->
      let wrong, trailing = fib_script ?shards seed in
      Alcotest.(check int) (Printf.sprintf "seed %d: FIB <> longest installed match" seed) 0 wrong;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: FIB seen trailing the loc-RIB (%d)" seed trailing)
        true (trailing > 0))
    [ 21; 22 ]

let test_probe_counts_unchanged_by_memo () =
  (* A memo hit is still charged as a probe. *)
  let w = ready_world () in
  Dataplane.Probe.reset_probe_count w.probe;
  for _ = 1 to 5 do
    ignore (Dataplane.Probe.ping w.probe ~src:o ~dst:(addr w e))
  done;
  Alcotest.(check int) "five pings" 5 w.probe.Dataplane.Probe.probes_sent;
  (* A failure-set write invalidates the cached verdict. *)
  Dataplane.Failure.add w.failures (Dataplane.Failure.spec ~toward:(infra o) (Dataplane.Failure.Node a));
  Alcotest.(check bool) "failure seen" false (Dataplane.Probe.ping w.probe ~src:o ~dst:(addr w e));
  Dataplane.Failure.remove w.failures
    (Dataplane.Failure.spec ~toward:(infra o) (Dataplane.Failure.Node a));
  Alcotest.(check bool) "heal seen" true (Dataplane.Probe.ping w.probe ~src:o ~dst:(addr w e));
  (* So does a FIB change: O withdraws its infrastructure prefix. *)
  Bgp.Network.withdraw w.net ~origin:o ~prefix:(infra o);
  converge w;
  Alcotest.(check bool) "withdrawal seen" false (Dataplane.Probe.ping w.probe ~src:o ~dst:(addr w e))

let test_delivers_allocation () =
  (* The verdict walk builds no hop list: a few words per call, not
     hundreds. *)
  let w = ready_world () in
  let dst = addr w o in
  ignore (Dataplane.Forward.delivers w.net w.failures ~src:e ~dst);
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Dataplane.Forward.delivers w.net w.failures ~src:e ~dst)
  done;
  let per_call = (Gc.minor_words () -. w0) /. 1000. in
  Alcotest.(check bool) (Printf.sprintf "words per delivers (%.1f)" per_call) true (per_call < 24.)

let suite =
  [
    Alcotest.test_case "basic delivery" `Quick test_basic_delivery;
    Alcotest.test_case "no route" `Quick test_no_route;
    Alcotest.test_case "node failure blocks" `Quick test_node_failure_blocks;
    Alcotest.test_case "directional link failure" `Quick test_directional_link_failure;
    Alcotest.test_case "toward scoping" `Quick test_toward_scoping;
    Alcotest.test_case "source blocked by own failure" `Quick test_source_blocked_by_own_failure;
    Alcotest.test_case "ping needs both directions" `Quick test_ping_requires_both_directions;
    Alcotest.test_case "misleading traceroute (Fig. 4)" `Quick test_misleading_traceroute;
    Alcotest.test_case "dropped hop is silent" `Quick test_dropped_hop_does_not_respond;
    Alcotest.test_case "ping from sentinel space" `Quick test_ping_from_sentinel_space;
    Alcotest.test_case "reverse traceroute" `Quick test_reverse_traceroute;
    Alcotest.test_case "probe accounting" `Quick test_probe_accounting;
    Alcotest.test_case "failure equality / heal" `Quick test_failure_spec_equality_and_heal;
    Alcotest.test_case "control+data failure" `Quick test_control_and_data_failure;
    Alcotest.test_case "memo keeps probe counts and sees writes" `Quick
      test_probe_counts_unchanged_by_memo;
    Alcotest.test_case "delivers allocates little" `Quick test_delivers_allocation;
    prop_delivers_matches_walk;
    Alcotest.test_case "memo = fresh walk through a script" `Quick (test_memo_script None);
    Alcotest.test_case "memo = fresh walk through a script, 2 shards" `Quick
      (test_memo_script (Some 2));
    Alcotest.test_case "FIB = longest installed match through a script" `Quick
      (test_fib_script None);
    Alcotest.test_case "FIB = longest installed match through a script, 2 shards" `Quick
      (test_fib_script (Some 2));
  ]
