(* The repository benchmark's measuring program.

   Usage: lgbench.exe --workload NAME --seed N --seconds S --trace 0|1
                      [--size full|tiny] [--spans FILE] [--inject-mismatch]

   --trace 0 measures the end-to-end metrics with metrics and tracing
   off, at --jobs 1: set-up is timed several times, then the workload is
   run again and again for S seconds and medians are reported, each time
   scaled to the reference host speed (see Calib). --trace 1 gives the
   per-layer profile instead (see Layers). Either way the correctness
   gate runs, and the last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. perfbench/run.py builds
   this program and is the command to use; GLOSSARY.md defines every
   metric. *)

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("lgbench: " ^ msg); exit 2) fmt

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  size : Workload.size;
  spans : string option;
  inject_mismatch : bool;
}

let parse_args argv =
  let int_arg flag v =
    match int_of_string_opt v with Some n -> n | None -> die "%s expects an integer, got %S" flag v
  in
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_arg "--seed" v } rest
    | "--seconds" :: v :: rest ->
        let s = int_arg "--seconds" v in
        if s < 1 then die "--seconds must be at least 1";
        go { a with seconds = float_of_int s } rest
    | "--trace" :: v :: rest -> (
        match v with
        | "0" -> go { a with trace = false } rest
        | "1" -> go { a with trace = true } rest
        | _ -> die "--trace expects 0 or 1, got %S" v)
    | "--size" :: v :: rest -> (
        match v with
        | "full" -> go { a with size = Workload.Full } rest
        | "tiny" -> go { a with size = Workload.Tiny } rest
        | _ -> die "--size expects full or tiny, got %S" v)
    | "--spans" :: v :: rest -> go { a with spans = Some v } rest
    | "--inject-mismatch" :: rest -> go { a with inject_mismatch = true } rest
    | arg :: _ -> die "unknown or incomplete argument %s" arg
  in
  let a =
    go
      {
        workload = "";
        seed = 42;
        seconds = 10.0;
        trace = false;
        size = Workload.Full;
        spans = None;
        inject_mismatch = false;
      }
      (List.tl (Array.to_list argv))
  in
  if a.workload = "" then die "--workload is required (%s)" (String.concat ", " Workload.names);
  a

(* ------------------------------------------------------------------ *)
(* End-to-end run. *)

let setup_reps = 5
let min_reps = 3

(* One timed region, at --jobs 1: wall and CPU seconds less the
   calibration kernels' own time, and the kernel times sampled in it. *)
type timed = { wall : float; cpu : float; kernels : float list }

let timed f =
  (* Each region starts from a collected heap, not from the garbage of
     the one before. *)
  Gc.full_major ();
  let cpu0 = Meter.cpu () in
  let t0 = Meter.now () in
  let r, kernels = Calib.sample f in
  let wall = Meter.now () -. t0 and cpu = Meter.cpu () -. cpu0 in
  let busy = Calib.busy kernels in
  (r, { wall = wall -. busy; cpu = cpu -. busy; kernels })

let end_to_end a (w : Workload.t) gate =
  (* A first run without the calibration kernel, whose allocations would
     move the heap's growth: the peak resident set is read after it. *)
  Gc.full_major ();
  let first = w.run ~jobs:1 ~seed:a.seed in
  let peak_rss = Meter.peak_rss_mb () in
  let setups =
    List.init setup_reps (fun _ -> snd (timed (fun () -> w.setup ~seed:a.seed)))
  in
  (* A set-up is short, so the kernel samples of all of them are pooled. *)
  let setup_scale = Calib.scale (List.concat_map (fun t -> t.kernels) setups) in
  let start = Meter.now () in
  let rec loop acc n =
    if n >= min_reps && Meter.now () -. start >= a.seconds then List.rev acc
    else loop (timed (fun () -> w.run ~jobs:1 ~seed:a.seed) :: acc) (n + 1)
  in
  let runs = loop [] 0 in
  let outcomes = first :: List.map fst runs in
  List.iter (Gate.outcome_checks gate) outcomes;
  let digests = List.map (fun (o : Workload.outcome) -> o.digest) outcomes in
  Gate.same_digests ~mismatch:a.inject_mismatch gate "digest.repeat" digests;
  let per_run = (List.hd outcomes).attempted in
  let attempted = max 1 (per_run * List.length outcomes) in
  let scaled f = Meter.median (List.map (fun (_, t) -> f t *. Calib.scale t.kernels) runs) in
  let wall = scaled (fun t -> t.wall) and cpu = scaled (fun t -> t.cpu) in
  let trials = (List.hd outcomes).trials in
  let per_run_line f = String.concat " " (List.map (fun (_, t) -> Printf.sprintf "%.3f" (f t)) runs) in
  Printf.printf
    "%s: %d runs in %.1f s, %d operations each, digest %s\n\
     wall per run (host s): %s\ncalibration kernel per run (us): %s\nset-up scale: %.3f\n"
    w.name (List.length runs) (Meter.now () -. start) per_run (List.hd digests)
    (per_run_line (fun t -> t.wall))
    (per_run_line (fun t -> Meter.median t.kernels *. 1e6))
    setup_scale;
  ( attempted,
    [
      ("wall_s", wall, "s");
      ("setup_s", Meter.median (List.map (fun t -> t.wall) setups) *. setup_scale, "s");
      ("cpu_s", cpu, "s");
      ("peak_rss_mb", peak_rss, "MiB");
      ("trials_per_s", float_of_int trials /. wall, "trials/s");
    ] )

(* ------------------------------------------------------------------ *)

let () =
  let a = parse_args Sys.argv in
  let w =
    match Workload.find a.size a.workload with
    | Some w -> w
    | None -> die "unknown workload %S (%s)" a.workload (String.concat ", " Workload.names)
  in
  let gate = Gate.create () in
  (* A study that raises fails the gate; there are then no figures. *)
  let attempted, metrics =
    match
      if a.trace then
        Layers.profile ~seed:a.seed ~inject_mismatch:a.inject_mismatch w gate
      else end_to_end a w gate
    with
    | r -> r
    | exception e ->
        Gate.check gate ("raised: " ^ Printexc.to_string e) false;
        (1, [])
  in
  (* A metric must be a number: a non-finite one fails the gate and is
     reported as 0. *)
  let metrics =
    List.map
      (fun (name, v, unit) ->
        Gate.check gate ("finite: " ^ name) (Float.is_finite v);
        (name, (if Float.is_finite v then v else 0.0), unit))
      metrics
  in
  Option.iter Meter.write_spans a.spans;
  let failures = Gate.failures gate in
  let correct = failures = [] in
  List.iter (fun name -> Printf.printf "check FAILED: %s\n" name) failures;
  List.iter (fun (name, v, unit) -> Printf.printf "%-32s %14.6g %s\n" name v unit) metrics;
  print_endline
    (Meter.result_json ~correct ~attempted ~failed:(if correct then 0 else attempted) metrics)
