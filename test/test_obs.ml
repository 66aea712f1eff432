(* lib/obs: the zero-cost-when-disabled guarantee, the JSONL envelope,
   cross-domain shard merging, and the golden jobs-invariance check on a
   traced fig6 run. *)

(* Alcotest runs every suite in one process and obs state is global, so
   each test starts and ends from a known-clean slate. *)
let reset_obs () =
  Obs.Trace.close ();
  Obs.Metrics.disable ();
  Obs.Metrics.reset ();
  Obs.Clock.clear ()

(* ---- disabled instruments must keep the engine hot loop cheap ---- *)

let test_disabled_cheap () =
  reset_obs ();
  let run_engine () =
    let e = Sim.Engine.create () in
    for i = 1 to 1000 do
      Sim.Engine.schedule e ~at:(float_of_int i) ignore
    done;
    Sim.Engine.run e
  in
  run_engine ();
  (* warmed; now measure. The bound leaves room for the engine's own
     event records but not for per-event kv lists or boxed snapshots —
     the regression this guards against. *)
  let w0 = Gc.minor_words () in
  run_engine ();
  let per_event = (Gc.minor_words () -. w0) /. 1000. in
  Alcotest.(check bool)
    (Printf.sprintf "allocation per event bounded (%.1f words)" per_event)
    true (per_event < 64.)

(* ---- JSONL round-trip through the in-memory sink ---- *)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

let contains s sub = find_sub s sub <> None

let test_trace_roundtrip () =
  reset_obs ();
  let buf = Buffer.create 1024 in
  Obs.Trace.enable_buffer buf;
  Alcotest.(check bool) "sink on" true (Obs.Trace.on ());
  Obs.Trace.event ~ts:1.5 ~span:"test.span"
    [
      ("i", Obs.Trace.Int 42);
      ("f", Obs.Trace.Float 2.5);
      ("b", Obs.Trace.Bool true);
      ("s", Obs.Trace.Str "a\"b\\c\nd\te\rf\x01");
    ];
  Obs.Trace.event ~ts:2.0 ~span:"other" [];
  Obs.Trace.close ();
  Alcotest.(check bool) "sink off after close" false (Obs.Trace.on ());
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> String.length l > 0)
  in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "line is a JSON object" true
        (l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  let l1 = List.nth lines 0 and l2 = List.nth lines 1 in
  Alcotest.(check bool) "ts rendered" true (contains l1 "\"ts\":1.500000");
  Alcotest.(check bool) "span rendered" true (contains l1 "\"span\":\"test.span\"");
  Alcotest.(check bool) "int kv" true (contains l1 "\"i\":42");
  Alcotest.(check bool) "float kv" true (contains l1 "\"f\":2.5");
  Alcotest.(check bool) "bool kv" true (contains l1 "\"b\":true");
  Alcotest.(check bool) "string kv escaped" true
    (contains l1 "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001\"");
  Alcotest.(check bool) "empty kv object" true (contains l2 "\"kv\":{}")

(* ---- merging 4 domains' shards equals the sequential totals ---- *)

let test_merge_across_domains () =
  reset_obs ();
  Obs.Metrics.enable ();
  let c = Obs.Metrics.counter "test.merge.c" in
  let g = Obs.Metrics.gauge "test.merge.g" in
  let h = Obs.Metrics.histogram "test.merge.h" in
  let work k () =
    for i = 1 to 1000 do
      Obs.Metrics.incr c;
      Obs.Metrics.observe_max g ((k * 1000) + i);
      Obs.Metrics.observe h (100.0 *. float_of_int (i mod 20))
    done
  in
  List.iter Domain.join (List.init 4 (fun k -> Domain.spawn (work (k + 1))));
  let par = Obs.Metrics.snapshot () in
  Obs.Metrics.reset ();
  List.iter (fun k -> work k ()) [ 1; 2; 3; 4 ];
  let seq = Obs.Metrics.snapshot () in
  Alcotest.(check int) "counter merged over 4 domains" 4000
    (Obs.Metrics.counter_value par "test.merge.c");
  Alcotest.(check int) "merged counter equals sequential"
    (Obs.Metrics.counter_value seq "test.merge.c")
    (Obs.Metrics.counter_value par "test.merge.c");
  Alcotest.(check int) "gauge is the max over domains" 5000
    (List.assoc "test.merge.g" par.Obs.Metrics.gauges);
  Alcotest.(check int) "merged gauge equals sequential"
    (List.assoc "test.merge.g" seq.Obs.Metrics.gauges)
    (List.assoc "test.merge.g" par.Obs.Metrics.gauges);
  let hist snap =
    List.find (fun r -> String.equal r.Obs.Metrics.hname "test.merge.h")
      snap.Obs.Metrics.hists
  in
  let hp = hist par and hs = hist seq in
  Alcotest.(check int) "hist total merged" 4000 hp.Obs.Metrics.total;
  Alcotest.(check (array int)) "hist buckets merged equal sequential"
    hs.Obs.Metrics.counts hp.Obs.Metrics.counts;
  (* Values 0, 100, ..., 1900 evenly over the decade buckets: 10% fall
     in <=100, 45% in <=1000, 45% overflow. *)
  let quantile q = Obs.Metrics.quantile hp q in
  Alcotest.(check (option (float 0.))) "p10 at the 100 s bound" (Some 100.0) (quantile 0.1);
  Alcotest.(check (option (float 0.))) "p50 in the last bucket" (Some 1000.0) (quantile 0.5);
  Alcotest.(check (option (float 0.))) "p90 overflows" (Some infinity) (quantile 0.9);
  Alcotest.(check (option (float 0.))) "empty histogram" None
    (Obs.Metrics.quantile
       { hp with Obs.Metrics.counts = Array.map (fun _ -> 0) hp.Obs.Metrics.counts; total = 0 }
       0.5);
  reset_obs ()

(* ---- golden: traced fig6 event counts are --jobs invariant ---- *)

let span_of_line line =
  match find_sub line "\"span\":\"" with
  | None -> None
  | Some i ->
      let start = i + String.length "\"span\":\"" in
      let stop = String.index_from line start '"' in
      Some (String.sub line start (stop - start))

let span_counts buf =
  let tbl = Hashtbl.create 16 in
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.iter (fun l ->
         match span_of_line l with
         | Some s -> Hashtbl.replace tbl s (1 + Option.value ~default:0 (Hashtbl.find_opt tbl s))
         | None -> ());
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let run_fig6 jobs =
  reset_obs ();
  let buf = Buffer.create (1 lsl 16) in
  Obs.Metrics.enable ();
  Obs.Trace.enable_buffer buf;
  ignore (Experiments.Fig6_convergence.run ~ases:60 ~max_poisons:2 ~jobs ~seed:7 ());
  let snap = Obs.Metrics.snapshot () in
  Obs.Trace.close ();
  Obs.Metrics.disable ();
  (span_counts buf, snap)

let test_fig6_jobs_invariance () =
  let spans1, snap1 = run_fig6 1 in
  let spans2, snap2 = run_fig6 2 in
  let spans4, snap4 = run_fig6 4 in
  Alcotest.(check bool) "trace produced events" true (spans1 <> []);
  Alcotest.(check (list (pair string int))) "span counts: jobs 2 = jobs 1" spans1 spans2;
  Alcotest.(check (list (pair string int))) "span counts: jobs 4 = jobs 1" spans1 spans4;
  let delivered s = Obs.Metrics.counter_value s "bgp.delivered" in
  Alcotest.(check bool) "simulation delivered updates" true (delivered snap1 > 0);
  Alcotest.(check int) "bgp.deliver trace events = bgp.delivered counter"
    (delivered snap1)
    (List.assoc "bgp.deliver" spans1);
  Alcotest.(check int) "delivered counter: jobs 2 = jobs 1" (delivered snap1)
    (delivered snap2);
  Alcotest.(check int) "delivered counter: jobs 4 = jobs 1" (delivered snap1)
    (delivered snap4);
  reset_obs ()

(* ---- a hubble view stamps its probes with its own clock ---- *)

(* The [ts] of every "meas.probe" line, in order. *)
let probe_stamps buf =
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter_map (fun l ->
         match span_of_line l with
         | Some "meas.probe" ->
             let start = String.length "{\"ts\":" in
             let stop = String.index_from l start ',' in
             Some (String.sub l start (stop - start))
         | Some _ | None -> None)

let hubble_world () =
  Workloads.Scenarios.planetlab ~ases:60 ~sites:6 ~target_count:5
    ~infrastructure:Workloads.Scenarios.Sites ~seed:11 ()

(* Half a day of Hubble monitoring with silent-failure arrivals, on the
   testbed's own engine and probe env (as each Hubble_study shard runs). *)
let monitor (bed : Workloads.Scenarios.testbed) =
  let open Workloads in
  let engine = bed.Scenarios.engine in
  let central = List.hd bed.Scenarios.vantage_points in
  let hubble =
    Measurement.Hubble.create ~env:bed.Scenarios.probe ~engine ~central
      ~vantage_points:(List.tl bed.Scenarios.vantage_points) ~targets:bed.Scenarios.targets ()
  in
  let until = Sim.Engine.now engine +. 43200.0 in
  Arrivals.start (Arrivals.create ()) ~rng:(Prng.create ~seed:5) ~bed ~src:central
    ~targets:bed.Scenarios.targets ~mean_interarrival:3600.0 ~until ();
  Sim.Engine.run ~until engine;
  Measurement.Hubble.probe_count hubble

let traced f =
  reset_obs ();
  let buf = Buffer.create (1 lsl 16) in
  Obs.Trace.enable_buffer buf;
  let r = f () in
  Obs.Trace.close ();
  (r, buf)

let test_hubble_view_clock () =
  (* The reference: the same monitoring on a world of its own. *)
  let rebuilt, rebuilt_buf = traced (fun () -> monitor (hubble_world ())) in
  let viewed, viewed_buf =
    traced (fun () -> monitor (Workloads.Scenarios.view (hubble_world ())))
  in
  let stamps = probe_stamps rebuilt_buf in
  Alcotest.(check bool) "probes traced" true (List.length stamps > 1);
  Alcotest.(check bool) "stamps follow the clock" true
    (List.hd stamps <> List.nth stamps (List.length stamps - 1));
  Alcotest.(check int) "probe count: view = rebuilt world" rebuilt viewed;
  Alcotest.(check (list string)) "meas.probe stamps: view = rebuilt world" stamps
    (probe_stamps viewed_buf);
  (* The driver's per-span counts do not depend on [jobs]. *)
  let spans jobs =
    snd
      (traced (fun () ->
           ignore (Experiments.Hubble_study.run ~ases:60 ~days:2.0 ~jobs ~seed:7 ())))
    |> span_counts
  in
  let spans1 = spans 1 in
  Alcotest.(check bool) "hubble traced probes" true (List.mem_assoc "meas.probe" spans1);
  Alcotest.(check (list (pair string int))) "hubble span counts: jobs 2 = jobs 1" spans1
    (spans 2);
  reset_obs ()

let suite =
  [
    Alcotest.test_case "disabled instruments stay cheap" `Quick test_disabled_cheap;
    Alcotest.test_case "trace JSONL round-trip" `Quick test_trace_roundtrip;
    Alcotest.test_case "metrics merge across 4 domains" `Quick test_merge_across_domains;
    Alcotest.test_case "fig6 trace counts are jobs-invariant" `Quick test_fig6_jobs_invariance;
    Alcotest.test_case "hubble view probes use its clock" `Quick test_hubble_view_clock;
  ]
