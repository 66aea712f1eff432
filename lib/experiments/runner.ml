(* Shared trial execution for the experiment drivers.

   Every converted experiment decomposes into a fixed list of trial
   closures — a decomposition that is a pure function of the experiment's
   parameters, never of the worker count. No two trials share anything
   a trial writes. Each kind of trial gets its world one way, chosen by
   what it writes:
   - rebuild, when worlds differ by seed (fleet, faults): the trial
     builds its own world;
   - fork, when the trial changes routes: it forks an immutable template
     (Workloads.Template) that the driver built and converged once;
   - view, when the trial only reads routes: it runs on a view of one
     world the driver built once (Workloads.Scenarios.view, [run_views]),
     which shares the world's graph and network read-only and owns its
     failure set, probe env and engine. [run_views] checks after the
     trials that the world was not written.
   Par.Pool returns results in submission order, so results (and
   therefore every table) are bit-identical for any ~jobs.

   With tracing enabled each trial is bracketed by a "runner.trial"
   event carrying its wall-clock duration (from the injected Obs.Clock;
   0 without one) and the engine events it dispatched. The event delta
   reads the worker's own metrics shard: a trial runs start-to-finish on
   one domain, so the delta is exact and deterministic even though other
   trials run concurrently on other domains. *)

let m_trials = Obs.Metrics.counter "runner.trials"
let m_engine_events = Obs.Metrics.counter "sim.events"

let observed_trial index thunk () =
  Obs.Metrics.incr m_trials;
  if not (Obs.Trace.on ()) then thunk ()
  else begin
    let t0 = Obs.Clock.now () in
    let e0 = Obs.Metrics.local_value m_engine_events in
    let finish ok =
      let t1 = Obs.Clock.now () in
      Obs.Trace.event ~ts:t1 ~span:"runner.trial"
        [
          ("trial", Obs.Trace.Int index);
          ("dur", Obs.Trace.Float (t1 -. t0));
          ("events", Obs.Trace.Int (Obs.Metrics.local_value m_engine_events - e0));
          ("ok", Obs.Trace.Bool ok);
        ]
    in
    match thunk () with
    | r ->
        finish true;
        r
    | exception e ->
        finish false;
        raise e
  end

let run_trials ~jobs thunks = Par.Pool.run_trials ~jobs (List.mapi observed_trial thunks)

let run_arms ~jobs arms =
  let lengths = List.map List.length arms in
  (* Nothing reads [arms] past this point, so a trial that has run, and
     the template its arm forks, can be collected while later ones run. *)
  let results = Array.of_list (run_trials ~jobs (List.concat arms)) in
  snd
    (List.fold_left_map
       (fun start n -> (start + n, Array.to_list (Array.sub results start n)))
       0 lengths)

(* What a trial that writes the shared world would move: a FIB install,
   a delivered message, or an event scheduled on or run by the world's
   engine. *)
let footprint (world : Workloads.Scenarios.testbed) =
  let net = world.Workloads.Scenarios.net and engine = world.Workloads.Scenarios.engine in
  Printf.sprintf "fib_epoch %d, messages %d, clock %h, pending %d" (Bgp.Network.fib_epoch net)
    (Bgp.Network.message_count net) (Sim.Engine.now engine) (Sim.Engine.pending engine)

let run_views ~jobs world trials =
  let before = footprint world in
  let results =
    run_trials ~jobs (List.map (fun trial () -> trial (Workloads.Scenarios.view world)) trials)
  in
  let after = footprint world in
  if not (String.equal after before) then
    failwith
      (Printf.sprintf "Runner.run_views: a trial wrote the shared world (%s -> %s)" before after);
  results
