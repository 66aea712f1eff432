(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (printing paper-vs-measured rows), then runs
   bechamel micro-benchmarks of the hot code paths.

   Usage: main.exe [--quick] [--seed N] [--only NAME[,NAME...]] [--no-micro]
                   [--jobs N] [--json [PATH]] [--trace FILE] [--metrics]
   Experiment names: fig1 fig5 alt-paths efficacy fig6 loss selective
   accuracy scalability load hubble anomalies sentinel ablation damping
   fleet faults plan recover case-study lint table1. A malformed number,
   an unknown flag or an unknown experiment name is one line on stderr
   and exit 2, before anything runs.

   --jobs N spreads experiment trials over N domains (default: the
   machine's recommended domain count; 1 forces the sequential path).
   Output tables are identical for every jobs value. --json writes a
   machine-readable run summary (per-experiment wall-clock, jobs, seed,
   micro-benchmark medians, the plan study's hit rate, and — when
   metrics are on — per-experiment counter totals) to PATH, defaulting
   to BENCH_<date>.json. --trace streams structured JSONL events to FILE
   (and implies --metrics); --metrics records Obs counters and prints a
   summary table.

   The run exits 1, after every table and the JSON summary are written,
   when a crash-resumed run diverges from its reference. *)

let seed = ref 42
let quick = ref false
let only : string list ref = ref []
let run_micro = ref true
let jobs = ref (Par.Pool.default_jobs ())
let json_path : string option ref = ref None
let trace_path : string option ref = ref None
let show_metrics = ref false

module Names = Set.Make (String)

let experiment_names =
  [
    "fig1"; "fig5"; "alt-paths"; "efficacy"; "fig6"; "loss"; "selective"; "accuracy";
    "scalability"; "load"; "hubble"; "anomalies"; "sentinel"; "ablation"; "damping"; "fleet";
    "faults"; "plan"; "recover"; "case-study"; "lint"; "table1";
  ]

(* The run date is read from the wall clock exactly once, at the top of
   [main], and threaded everywhere a date is rendered — so the default
   --json filename and the "date" field inside it can never disagree
   across a midnight rollover mid-run. *)
let parse_args ~date =
  let default_json_path = Printf.sprintf "BENCH_%s.json" date in
  let refuse fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt in
  let known = Names.of_list experiment_names in
  let int_arg flag n =
    match int_of_string_opt n with
    | Some v -> v
    | None -> refuse "%s expects an integer, got %S" flag n
  in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        go rest
    | "--no-micro" :: rest ->
        run_micro := false;
        go rest
    | "--seed" :: n :: rest ->
        seed := int_arg "--seed" n;
        go rest
    | "--jobs" :: n :: rest ->
        jobs := max 1 (int_arg "--jobs" n);
        go rest
    | "--json" :: path :: rest when String.length path < 2 || String.sub path 0 2 <> "--"
      ->
        json_path := Some path;
        go rest
    | "--json" :: rest ->
        json_path := Some default_json_path;
        go rest
    | "--trace" :: path :: rest ->
        trace_path := Some path;
        go rest
    | "--metrics" :: rest ->
        show_metrics := true;
        go rest
    | "--only" :: names :: rest ->
        only := String.split_on_char ',' names;
        (match List.find_opt (fun name -> not (Names.mem name known)) !only with
        | Some name ->
            refuse "unknown experiment %S (known: %s)" name (String.concat " " experiment_names)
        | None -> ());
        go rest
    | arg :: _ -> refuse "unknown argument %s" arg
  in
  go (List.tl (Array.to_list Sys.argv))

(* What diverged from its reference (crash-resume), in run order; a
   non-empty list makes the run exit 1 at the end. *)
let diverged : string list ref = ref []

let wanted name =
  match !only with
  | [] -> true
  | names -> List.mem name names

let banner title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Wall-clock per experiment, in run order, for the JSON summary. *)
let timings : (string * float) list ref = ref []

(* --json only: the plan study's headline numbers — (hit rate, planned
   median reroute s, computed median reroute s). *)
let plan_summary : (float * float option * float option) option ref = ref None

(* --json only: the durable-run section's headline numbers —
   (snapshot_bytes, journal_lines, capture_ms, resume_seconds,
   crash_resume_identical). *)
let recover_summary : (int * int * float * float * bool) option ref = ref None

(* Per-experiment counter deltas (name, counters), newest first. Metrics
   accumulate across the whole run; [timed] diffs consecutive snapshots
   so each experiment gets only what it recorded. Snapshots are taken
   between experiments, when no worker domain is mid-trial. *)
let exp_metrics : (string * (string * int) list) list ref = ref []
let last_counters : (string * int) list ref = ref []

let counter_deltas (snap : Obs.Metrics.snapshot) =
  let prev name = Option.value ~default:0 (List.assoc_opt name !last_counters) in
  List.filter_map
    (fun (name, v) ->
      let d = v - prev name in
      if d = 0 then None else Some (name, d))
    snap.Obs.Metrics.counters

let timed name f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let dt = Unix.gettimeofday () -. t0 in
  timings := (name, dt) :: !timings;
  if Obs.Metrics.on () then begin
    let snap = Obs.Metrics.snapshot () in
    exp_metrics := (name, counter_deltas snap) :: !exp_metrics;
    last_counters := snap.Obs.Metrics.counters
  end;
  Printf.printf "[%s completed in %.1fs]\n" name dt;
  result

let print_tables tables = List.iter Stats.Table.print tables

(* ------------------------------------------------------------------ *)
(* Experiment sizes: the default regenerates stable statistics; --quick
   shrinks everything for smoke runs. *)

type sizes = {
  dataset : int;
  ases : int;
  poisons : int;
  loss_poisons : int;
  feeds : int;
  failures : int;
  outages : int;
}

let sizes () =
  if !quick then
    {
      dataset = 2000;
      ases = 150;
      poisons = 8;
      loss_poisons = 5;
      feeds = 15;
      failures = 30;
      outages = 80;
    }
  else
    {
      dataset = 10308;
      ases = 318;
      poisons = 25;
      loss_poisons = 15;
      feeds = 40;
      failures = 120;
      outages = 400;
    }

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the hot paths. *)

let micro_benchmarks () =
  let open Bechamel in
  let open Toolkit in
  let seed = !seed in
  (* Decision process over a populated candidate set. *)
  let decision_test =
    let entries =
      List.init 8 (fun i ->
          Bgp.Route.make_entry ~salt:64500
            ~ann:
              (Bgp.Route.announcement
                 ~prefix:(Net.Prefix.of_string_exn "203.0.113.0/24")
                 ~path:
                   (Bgp.As_path.of_list
                      (List.init (3 + (i mod 4)) (fun j -> Net.Asn.of_int (100 + i + j)))))
            ~neighbor:(Net.Asn.of_int (100 + i))
            ~rel:
              (if i mod 3 = 0 then Topology.Relationship.Customer
               else if i mod 3 = 1 then Topology.Relationship.Peer
               else Topology.Relationship.Provider)
            ~local_pref:(Topology.Relationship.local_pref Topology.Relationship.Peer)
            ~learned_at:0.0 ())
    in
    Test.make ~name:"decision: best of 8 candidates"
      (Staged.stage (fun () -> ignore (Bgp.Decision.best entries)))
  in
  (* Longest-prefix-match trie. *)
  let trie_tests =
    let rng = Prng.create ~seed in
    let trie = Net.Prefix_trie.create () in
    for i = 0 to 499 do
      Net.Prefix_trie.replace trie
        (Net.Prefix.make (Net.Ipv4.of_octets 10 (i mod 256) ((i * 7) mod 256) 0) (16 + (i mod 9)))
        i
    done;
    let addresses =
      Array.init 64 (fun _ ->
          Net.Ipv4.of_octets 10 (Prng.int rng 256) (Prng.int rng 256) (Prng.int rng 256))
    in
    let i = ref 0 in
    [
      Test.make ~name:"prefix trie: longest-prefix match"
        (Staged.stage (fun () ->
             incr i;
             ignore (Net.Prefix_trie.lookup trie addresses.(!i land 63))));
      Test.make ~name:"prefix trie: find_longest (no prefix)"
        (Staged.stage (fun () ->
             incr i;
             ignore (Net.Prefix_trie.find_longest trie addresses.(!i land 63))));
    ]
  in
  (* Valley-free reachability on a realistic topology. *)
  let gen = Topology.Topo_gen.generate ~seed () in
  let graph = gen.Topology.Topo_gen.graph in
  let stubs = Array.of_list gen.Topology.Topo_gen.stub_list in
  let reach_test =
    let i = ref 0 in
    Test.make ~name:"policy_reachable on 318-AS graph"
      (Staged.stage (fun () ->
           incr i;
           let src = stubs.(!i mod Array.length stubs) in
           let dst = stubs.((!i * 13 + 7) mod Array.length stubs) in
           ignore
             (Topology.Splice.policy_reachable graph ~src ~dst ~avoiding:Net.Asn.Set.empty)))
  in
  (* Event engine throughput. *)
  let engine_test =
    Test.make ~name:"event engine: schedule+run 100 events"
      (Staged.stage (fun () ->
           let e = Sim.Engine.create () in
           for i = 1 to 100 do
             Sim.Engine.schedule e ~at:(float_of_int i) ignore
           done;
           Sim.Engine.run e))
  in
  (* Data-plane forwarding walk. *)
  let bed = Workloads.Scenarios.planetlab ~ases:150 ~seed () in
  let vps = Array.of_list bed.Workloads.Scenarios.vantage_points in
  let walk_test =
    let i = ref 0 in
    Test.make ~name:"data plane: forwarding walk"
      (Staged.stage (fun () ->
           incr i;
           let src = vps.(!i mod Array.length vps) in
           let dst = vps.((!i * 5 + 3) mod Array.length vps) in
           ignore
             (Dataplane.Forward.delivers bed.Workloads.Scenarios.net
                bed.Workloads.Scenarios.failures ~src
                ~dst:(Dataplane.Forward.probe_address bed.Workloads.Scenarios.net dst))))
  in
  (* O(1) interned equality vs a structural list walk, across path
     lengths: the interned timings stay flat while the baseline grows.
     The list representation survives only here, as the yardstick. *)
  let equality_tests =
    let store = Bgp.Path_store.create () in
    let mk_pair len =
      let asns = List.init len (fun i -> Net.Asn.of_int (64000 + i)) in
      let p = Bgp.Path_store.intern_path store (Bgp.As_path.of_list asns) in
      let q = Bgp.Path_store.intern_path store (Bgp.As_path.of_list asns) in
      let l1 = List.init len (fun i -> Net.Asn.of_int (64000 + i)) in
      let l2 = List.init len (fun i -> Net.Asn.of_int (64000 + i)) in
      let rec list_eq a b =
        match (a, b) with
        | [], [] -> true
        | x :: xs, y :: ys -> Net.Asn.equal x y && list_eq xs ys
        | _ -> false
      in
      [
        Test.make ~name:(Printf.sprintf "as_path equal: interned, len %d" len)
          (Staged.stage (fun () -> ignore (Bgp.As_path.equal p q)));
        Test.make ~name:(Printf.sprintf "as_path equal: list baseline, len %d" len)
          (Staged.stage (fun () -> ignore (list_eq l1 l2)));
      ]
    in
    List.concat_map mk_pair [ 4; 64; 512 ]
  in
  let ann_equal_test =
    let store = Bgp.Path_store.create () in
    let mk () =
      Bgp.Route.announcement
        ~prefix:(Net.Prefix.of_string_exn "203.0.113.0/24")
        ~path:(Bgp.As_path.of_list (List.init 6 (fun i -> Net.Asn.of_int (65000 + i))))
    in
    let a1 = Bgp.Path_store.intern_ann store (mk ()) in
    let a2 = Bgp.Path_store.intern_ann store (mk ()) in
    Test.make ~name:"announcement equal: interned"
      (Staged.stage (fun () -> ignore (Bgp.Route.announcement_equal a1 a2)))
  in
  (* Incremental export sync: a full session flap only touches the flapped
     neighbor's adj-RIB-out, not every (prefix x neighbor) pair. *)
  let session_flap_test =
    let neighbors =
      List.init 4 (fun i -> (Net.Asn.of_int (200 + i), Topology.Relationship.Customer))
    in
    let sp =
      Bgp.Speaker.create ~asn:(Net.Asn.of_int 100) ~config:Bgp.Policy.default ~neighbors ()
    in
    let plain = Bgp.As_path.plain ~origin:(Net.Asn.of_int 100) in
    List.iter
      (fun i ->
        let prefix = Net.Prefix.make (Net.Ipv4.of_octets 10 i 0 0) 24 in
        ignore
          (Bgp.Speaker.originate sp ~now:0.0 ~prefix ~per_neighbor:(fun _ -> Some plain)))
      (List.init 50 (fun i -> i));
    let flapper = Net.Asn.of_int 200 in
    Test.make ~name:"speaker: session flap, 50 prefixes x 4 neighbors"
      (Staged.stage (fun () ->
           ignore (Bgp.Speaker.session_down sp ~now:1.0 ~neighbor:flapper);
           ignore (Bgp.Speaker.session_up sp ~now:2.0 ~neighbor:flapper)))
  in
  let tests =
    Test.make_grouped ~name:"lifeguard"
      ((decision_test :: trie_tests)
      @ [ reach_test; engine_test; walk_test ]
      @ equality_tests
      @ [ ann_equal_test; session_flap_test ])
  in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
    let raw_results = Benchmark.all cfg instances tests in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw_results) instances
    in
    let results = Analyze.merge ols instances results in
    results
  in
  let results = benchmark () in
  let medians = ref [] in
  Hashtbl.iter
    (fun measure_name tbl ->
      if measure_name = Bechamel.Measure.label Bechamel.Toolkit.Instance.monotonic_clock
      then
        Hashtbl.iter
          (fun test_name ols ->
            let ns =
              match Bechamel.Analyze.OLS.estimates ols with
              | Some [ e ] -> Some e
              | Some _ | None -> None
            in
            medians := (test_name, ns) :: !medians)
          tbl)
    results;
  let table =
    Stats.Table.create ~title:"Micro-benchmarks (bechamel, monotonic clock)"
      ~columns:[ "benchmark"; "ns/run" ]
  in
  List.iter
    (fun (test_name, ns) ->
      let cell = match ns with Some e -> Printf.sprintf "%.1f" e | None -> "-" in
      Stats.Table.add_row table [ test_name; cell ])
    !medians;
  Stats.Table.print table;
  !medians

(* ------------------------------------------------------------------ *)
(* Machine-readable run summary. *)

let write_json ~date ~path ~micro =
  let buf = Buffer.create 1024 in
  let esc = Obs.Trace.add_escaped in
  let sep i n = if i < n - 1 then "," else "" in
  Buffer.add_string buf "{\n";
  Printf.bprintf buf "  \"date\": \"%s\",\n" date;
  Printf.bprintf buf "  \"seed\": %d,\n" !seed;
  Printf.bprintf buf "  \"quick\": %b,\n" !quick;
  Printf.bprintf buf "  \"jobs\": %d,\n" !jobs;
  Buffer.add_string buf "  \"experiments\": [\n";
  let rows = List.rev !timings in
  List.iteri
    (fun i (name, dt) ->
      Printf.bprintf buf "    { \"name\": \"%a\", \"seconds\": %.3f }%s\n" esc name dt
        (sep i (List.length rows)))
    rows;
  Buffer.add_string buf "  ],\n";
  (match !plan_summary with
  | None -> ()
  | Some (hit_rate, planned_p50, computed_p50) ->
      let opt = function None -> "null" | Some v -> Printf.sprintf "%.1f" v in
      Printf.bprintf buf
        "  \"plan\": { \"hit_rate\": %.4f, \"reroute_p50_planned\": %s, \
         \"reroute_p50_computed\": %s },\n"
        hit_rate (opt planned_p50) (opt computed_p50));
  (match !recover_summary with
  | None -> ()
  | Some (snapshot_bytes, journal_lines, capture_ms, resume_seconds, identical) ->
      Printf.bprintf buf
        "  \"recover\": { \"snapshot_bytes\": %d, \"journal_lines\": %d, \"capture_ms\": \
         %.3f, \"resume_seconds\": %.3f, \"crash_resume_identical\": %b },\n"
        snapshot_bytes journal_lines capture_ms resume_seconds identical);
  (match List.rev !exp_metrics with
  | [] -> ()
  | per_exp ->
      Buffer.add_string buf "  \"metrics\": [\n";
      let n_exp = List.length per_exp in
      List.iteri
        (fun i (name, counters) ->
          Printf.bprintf buf "    { \"name\": \"%a\", \"counters\": { " esc name;
          List.iteri
            (fun k (key, v) ->
              Printf.bprintf buf "%s\"%a\": %d" (if k > 0 then ", " else "") esc key v)
            counters;
          Printf.bprintf buf " } }%s\n" (sep i n_exp))
        per_exp;
      Buffer.add_string buf "  ],\n");
  Buffer.add_string buf "  \"micro_ns\": {\n";
  List.iteri
    (fun i (name, ns) ->
      Printf.bprintf buf "    \"%a\": %s%s\n" esc name
        (match ns with Some e -> Printf.sprintf "%.1f" e | None -> "null")
        (sep i (List.length micro)))
    micro;
  Buffer.add_string buf "  }\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\n[wrote %s]\n" path

(* ------------------------------------------------------------------ *)

let () =
  (* The single wall-clock date read of the run (see parse_args). *)
  let date =
    let tm = Unix.localtime (Unix.time ()) in
    Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
      tm.Unix.tm_mday
  in
  parse_args ~date;
  if !show_metrics || !trace_path <> None then begin
    (* Libraries read time through the injected Obs.Clock only; the
       binary is the one place the real clock is installed. *)
    Obs.Clock.set Unix.gettimeofday;
    Obs.Metrics.enable ()
  end;
  (match !trace_path with Some path -> Obs.Trace.enable_file path | None -> ());
  let s = sizes () in
  let seed = !seed in
  Printf.printf "LIFEGUARD reproduction benchmark harness (seed %d%s)\n" seed
    (if !quick then ", quick mode" else "");

  if wanted "fig1" then begin
    banner "Figure 1: outage durations vs unavailability";
    let r = timed "fig1" (fun () -> Experiments.Fig1_durations.run ~n:s.dataset ~seed ()) in
    print_tables (Experiments.Fig1_durations.to_tables r)
  end;

  if wanted "fig5" then begin
    banner "Figure 5: residual outage duration";
    let r = timed "fig5" (fun () -> Experiments.Fig5_residual.run ~n:s.dataset ~seed ()) in
    print_tables (Experiments.Fig5_residual.to_tables r)
  end;

  if wanted "alt-paths" then begin
    banner "Section 2.2: alternate policy-compliant paths";
    let r =
      timed "alt-paths" (fun () ->
          Experiments.Sec22_alt_paths.run ~ases:s.ases ~outage_count:s.outages ~seed ())
    in
    print_tables (Experiments.Sec22_alt_paths.to_tables r)
  end;

  let efficacy =
    if wanted "efficacy" || wanted "table1" then begin
      banner "Section 5.1: poisoning efficacy";
      let r =
        timed "efficacy" (fun () ->
            Experiments.Sec51_efficacy.run ~ases:s.ases ~max_poisons:s.poisons ~jobs:!jobs
              ~seed ())
      in
      print_tables (Experiments.Sec51_efficacy.to_tables r);
      Some r
    end
    else None
  in

  let convergence =
    if wanted "fig6" || wanted "table1" then begin
      banner "Figure 6: convergence after poisoned announcements";
      let r =
        timed "fig6" (fun () ->
            Experiments.Fig6_convergence.run ~ases:s.ases ~max_poisons:s.poisons ~jobs:!jobs
              ~seed ())
      in
      print_tables (Experiments.Fig6_convergence.to_tables r);
      Some r
    end
    else None
  in

  let loss =
    if wanted "loss" || wanted "table1" then begin
      banner "Section 5.2: loss during convergence";
      let r =
        timed "loss" (fun () ->
            Experiments.Sec52_loss.run ~ases:s.ases ~max_poisons:s.loss_poisons ~jobs:!jobs
              ~seed ())
      in
      print_tables (Experiments.Sec52_loss.to_tables r);
      Some r
    end
    else None
  in

  let selective =
    if wanted "selective" || wanted "table1" then begin
      banner "Section 5.2: selective poisoning + forward diversity";
      let r =
        timed "selective" (fun () ->
            Experiments.Sec52_selective.run ~ases:s.ases ~max_feeds:s.feeds ~jobs:!jobs
              ~seed ())
      in
      print_tables (Experiments.Sec52_selective.to_tables r);
      Some r
    end
    else None
  in

  let accuracy =
    if wanted "accuracy" || wanted "scalability" || wanted "table1" then begin
      banner "Section 5.3: isolation accuracy";
      let r =
        timed "accuracy" (fun () ->
            Experiments.Sec53_accuracy.run ~ases:s.ases ~failure_count:s.failures ~jobs:!jobs
              ~seed ())
      in
      print_tables (Experiments.Sec53_accuracy.to_tables r);
      Some r
    end
    else None
  in

  let scalability =
    match accuracy with
    | Some acc when wanted "scalability" || wanted "table1" ->
        banner "Section 5.4: scalability";
        let r =
          timed "scalability" (fun () ->
              Experiments.Sec54_scalability.run ~ases:s.ases ~seed ~accuracy:acc ())
        in
        print_tables (Experiments.Sec54_scalability.to_tables r);
        Some r
    | _ -> None
  in

  if wanted "load" then begin
    banner "Table 2: update load at deployment scale";
    let r = timed "load" (fun () -> Experiments.Tab2_load.run ~n:s.dataset ~seed ()) in
    print_tables (Experiments.Tab2_load.to_tables r)
  end;

  if wanted "hubble" then begin
    banner "Hubble-style monitoring: deriving H(d) for Table 2";
    let r =
      timed "hubble" (fun () ->
          Experiments.Hubble_study.run ~ases:(min s.ases 200)
            ~days:(if !quick then 2.0 else 7.0)
            ~jobs:!jobs ~seed ())
    in
    print_tables (Experiments.Hubble_study.to_tables r)
  end;

  if wanted "anomalies" then begin
    banner "Section 7.1: poisoning anomalies";
    let r =
      timed "anomalies" (fun () ->
          Experiments.Sec71_anomalies.run ~ases:(min s.ases 200) ~jobs:!jobs ~seed ())
    in
    print_tables (Experiments.Sec71_anomalies.to_tables r)
  end;

  if wanted "sentinel" then begin
    banner "Section 7.2: sentinel variants";
    let r = timed "sentinel" (fun () -> Experiments.Sec72_sentinel.run ()) in
    print_tables (Experiments.Sec72_sentinel.to_tables r)
  end;

  if wanted "ablation" then begin
    banner "Ablation: prepending / MRAI / FIB latency";
    let r =
      timed "ablation" (fun () ->
          Experiments.Ablation.run ~ases:(min s.ases 200) ~poisons:(min s.poisons 10)
            ~jobs:!jobs ~seed ())
    in
    print_tables (Experiments.Ablation.to_tables r)
  end;

  if wanted "damping" then begin
    banner "Route-flap damping: why announcements were spaced 90 minutes";
    let r =
      timed "damping" (fun () ->
          Experiments.Damping.run ~ases:(min s.ases 150) ~jobs:!jobs ~seed ())
    in
    print_tables (Experiments.Damping.to_tables r)
  end;

  if wanted "fleet" then begin
    banner "Fleet operations: continuous multi-outage service loop";
    let config =
      {
        Fleet.Service.default_config with
        Fleet.Service.duration = (if !quick then 10800.0 else 86400.0);
      }
    in
    let r =
      timed "fleet" (fun () ->
          Experiments.Fleet_study.run ~config
            ~targets:(if !quick then 50 else 250)
            ~jobs:!jobs ~seed ())
    in
    print_tables (Experiments.Fleet_study.to_tables r)
  end;

  if wanted "faults" then begin
    banner "Fault study: repair robustness under control-plane faults";
    let config =
      {
        Fleet.Service.default_config with
        Fleet.Service.duration = (if !quick then 10800.0 else 21600.0);
      }
    in
    let r =
      timed "faults" (fun () ->
          Experiments.Fault_study.run ~config
            ~intensities:(if !quick then [ 0.0; 1.0 ] else Experiments.Fault_study.default_intensities)
            ~targets:(if !quick then 25 else 100)
            ~jobs:!jobs ~seed ())
    in
    print_tables (Experiments.Fault_study.to_tables r)
  end;

  if wanted "plan" then begin
    banner "Plan study: precomputed remediation vs compute-from-scratch";
    let config =
      {
        Experiments.Plan_study.default_config with
        Fleet.Service.duration = (if !quick then 21600.0 else 43200.0);
      }
    in
    let r =
      timed "plan" (fun () ->
          Experiments.Plan_study.run ~config
            ~targets:(if !quick then 20 else 40)
            ~jobs:!jobs ~seed ())
    in
    let median samples = Experiments.Plan_study.quantile samples 0.5 in
    plan_summary :=
      Some
        ( Experiments.Plan_study.hit_rate r.Experiments.Plan_study.planned,
          median r.Experiments.Plan_study.planned.Experiments.Plan_study.time_to_confirm,
          median r.Experiments.Plan_study.computed.Experiments.Plan_study.time_to_confirm );
    print_tables (Experiments.Plan_study.to_tables r)
  end;

  if wanted "recover" then begin
    banner "Recover: durable journal + snapshots, crash-and-resume fidelity";
    let config =
      {
        Fleet.Service.default_config with
        Fleet.Service.duration = (if !quick then 10800.0 else 21600.0);
        target_count = 12;
        outages_per_day = 96.0;
      }
    in
    let snapshot_every = config.Fleet.Service.duration /. 4.0 in
    let last_snap = ref None in
    let reference =
      timed "recover" (fun () ->
          Fleet.Service.run_durable ~config ~seed ~snapshot_every
            ~snapshot_sink:(fun s -> last_snap := Some s)
            ())
    in
    match reference with
    | Fleet.Service.Interrupted _ -> assert false (* no crash injected *)
    | Fleet.Service.Finished { report; recovery } ->
        let journal_lines = List.length recovery.Fleet.Service.rc_journal in
        let snapshot_bytes, capture_ms =
          match !last_snap with
          | None -> (0, 0.0)
          | Some s ->
              let bytes = String.length (Recover.Snapshot.render s) in
              let reps = 100 in
              let t0 = Unix.gettimeofday () in
              for _ = 1 to reps do
                ignore (Recover.Snapshot.render s)
              done;
              (bytes, (Unix.gettimeofday () -. t0) *. 1000.0 /. float_of_int reps)
        in
        (* Crash mid-journal at the after-write boundary (record persisted,
           effect lost — the boundary recovery must heal), then resume and
           demand byte-identity with the uninterrupted report. *)
        let crash_append = Int.max 1 (journal_lines / 2) in
        let crashed =
          Fleet.Service.run_durable ~config ~seed
            ~crash:{ Recover.Crash.boundary = Recover.Crash.After_write; append = crash_append }
            ~snapshot_every
            ()
        in
        let t0 = Unix.gettimeofday () in
        let resumed =
          match crashed with
          | Fleet.Service.Finished _ -> assert false (* crash_append <= journal length *)
          | Fleet.Service.Interrupted { journal; snapshot; _ } ->
              Fleet.Service.run_durable ~config ~seed ~journal ?snapshot ~snapshot_every ()
        in
        let resume_seconds = Unix.gettimeofday () -. t0 in
        let identical =
          match resumed with
          | Fleet.Service.Interrupted _ -> false
          | Fleet.Service.Finished { report = r2; recovery = rc2 } ->
              List.equal String.equal
                (Fleet.Service.render_report report)
                (Fleet.Service.render_report r2)
              && rc2.Fleet.Service.rc_reconcile.Recover.Reconcile.clean
        in
        recover_summary :=
          Some (snapshot_bytes, journal_lines, capture_ms, resume_seconds, identical);
        Printf.printf
          "[recover: %d journal lines, %d snapshot bytes, capture %.3f ms, crash@%d resume \
           %.1fs, %s]\n"
          journal_lines snapshot_bytes capture_ms crash_append resume_seconds
          (if identical then "byte-identical" else "DIVERGED");
        if not identical then diverged := !diverged @ [ "recover: crash-resume" ]
  end;

  if wanted "case-study" then begin
    banner "Section 6: case study";
    let r = timed "case-study" (fun () -> Experiments.Case_study.run ()) in
    print_tables (Experiments.Case_study.to_tables r)
  end;

  if wanted "lint" then begin
    banner "Static analysis: lifeguard-lint wall-clock";
    (* The benchmark usually runs from _build/default/bench, where the
       mirrored sources sit one level up; fall back gracefully when the
       tree is not around (e.g. an installed binary). *)
    let root =
      if Sys.file_exists "lib" then Some "."
      else if Sys.file_exists "../lib" then Some ".."
      else None
    in
    match root with
    | None -> Printf.printf "(sources not present; skipped)\n"
    | Some root ->
        let dirs =
          List.filter Sys.file_exists
            (List.map (Filename.concat root) [ "lib"; "bin"; "bench"; "examples" ])
        in
        let r = timed "lint" (fun () -> Lint.scan ~dirs ()) in
        let eff, _ = timed "lint-effects" (fun () -> Lint.analyse ~dirs ()) in
        let summarized = List.length (Lint.Effects.summary_rows eff) in
        Printf.printf "%d violation(s) pre-baseline, %d parse error(s); %d exported definitions summarized\n"
          (List.length r.Lint.violations)
          (List.length r.Lint.errors)
          summarized
  end;

  (match (efficacy, convergence, loss, selective, accuracy, scalability) with
  | Some e, Some c, Some l, Some sel, Some a, Some sc when wanted "table1" ->
      banner "Table 1: summary of key results";
      print_tables
        (Experiments.Tab1_summary.to_tables ~efficacy:e ~convergence:c ~loss:l ~selective:sel
           ~accuracy:a ~scalability:sc)
  | _ -> ());

  let micro =
    if !run_micro && !only = [] then begin
      banner "Micro-benchmarks";
      micro_benchmarks ()
    end
    else []
  in
  if !show_metrics then begin
    banner "Metrics";
    Experiments.Metrics_report.print ()
  end;
  (match !json_path with
  | Some path -> write_json ~date ~path ~micro
  | None -> ());
  (match !trace_path with
  | Some path ->
      Obs.Trace.close ();
      Printf.printf "\n[wrote trace %s]\n" path
  | None -> ());
  match !diverged with
  | [] -> ()
  | what ->
      Printf.eprintf "DIVERGED: %s\n" (String.concat "; " what);
      exit 1
