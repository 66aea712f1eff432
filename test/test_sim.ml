(* Discrete-event engine semantics. *)

let test_time_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~at:3.0 (fun () -> log := 3 :: !log);
  Sim.Engine.schedule e ~at:1.0 (fun () -> log := 1 :: !log);
  Sim.Engine.schedule e ~at:2.0 (fun () -> log := 2 :: !log);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 0.0001)) "clock at last event" 3.0 (Sim.Engine.now e)

let test_fifo_at_equal_times () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.Engine.schedule e ~at:1.0 (fun () -> log := i :: !log)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "FIFO among ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_schedule_during_run () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~at:1.0 (fun () ->
      log := "a" :: !log;
      Sim.Engine.schedule_after e ~delay:0.5 (fun () -> log := "b" :: !log));
  Sim.Engine.schedule e ~at:2.0 (fun () -> log := "c" :: !log);
  Sim.Engine.run e;
  Alcotest.(check (list string)) "nested events interleave" [ "a"; "b"; "c" ] (List.rev !log)

let test_run_until () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.schedule e ~at:1.0 (fun () -> incr fired);
  Sim.Engine.schedule e ~at:10.0 (fun () -> incr fired);
  Sim.Engine.run ~until:5.0 e;
  Alcotest.(check int) "only events before deadline" 1 !fired;
  Alcotest.(check (float 0.0001)) "clock advanced to deadline" 5.0 (Sim.Engine.now e);
  Alcotest.(check int) "one still pending" 1 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check int) "resumes" 2 !fired

let test_schedule_every_stop () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  Sim.Engine.schedule_every e ~every:1.0 (fun _ ->
      incr count;
      if !count >= 3 then `Stop else `Continue);
  Sim.Engine.run e;
  Alcotest.(check int) "stops on `Stop" 3 !count

let test_schedule_every_until () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  Sim.Engine.schedule_every e ~every:1.0 ~until:4.5 (fun _ ->
      incr count;
      `Continue);
  Sim.Engine.run e;
  Alcotest.(check int) "bounded by until" 4 !count

(* A tick landing exactly on [until] still runs: 1, 2, 3 and 4. *)
let test_schedule_every_until_boundary () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  Sim.Engine.schedule_every e ~every:1.0 ~until:4.0 (fun _ ->
      incr count;
      `Continue);
  Sim.Engine.run e;
  Alcotest.(check int) "tick at until runs" 4 !count

let test_past_rejected () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~at:5.0 ignore;
  Sim.Engine.run e;
  Alcotest.check Alcotest.bool "scheduling in the past raises" true
    (try
       Sim.Engine.schedule e ~at:1.0 ignore;
       false
     with Invalid_argument _ -> true);
  Alcotest.check Alcotest.bool "negative delay raises" true
    (try
       Sim.Engine.schedule_after e ~delay:(-1.0) ignore;
       false
     with Invalid_argument _ -> true)

let test_step () =
  let e = Sim.Engine.create () in
  Alcotest.(check bool) "empty step" false (Sim.Engine.step e);
  Sim.Engine.schedule e ~at:1.0 ignore;
  Alcotest.(check bool) "step runs one" true (Sim.Engine.step e);
  Alcotest.(check bool) "then empty" false (Sim.Engine.step e)

let prop_heap_order =
  QCheck.Test.make ~name:"arbitrary schedules run in order" ~count:200
    QCheck.(small_list (float_range 0.0 1000.0))
    (fun times ->
      let e = Sim.Engine.create () in
      let fired = ref [] in
      List.iter (fun t -> Sim.Engine.schedule e ~at:t (fun () -> fired := t :: !fired)) times;
      Sim.Engine.run e;
      let fired = List.rev !fired in
      List.sort compare times = List.stable_sort compare fired
      &&
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | _ -> true
      in
      sorted fired)

(* More than 64 events (so the heap grows past its first capacity) at a
   few integer times (so most of them tie), some scheduling a child from
   inside their action. Dispatch must follow a reference queue that pops
   the earliest time and, among equal times, the event scheduled first:
   a stable sort of the event ids by time. *)
let prop_ties_growth_nested =
  QCheck.Test.make ~name:"ties, growth and nested schedules keep (time, seq) order" ~count:100
    QCheck.(list_of_size (Gen.int_range 65 200) (pair (int_range 0 4) (int_range 0 5)))
    (fun specs ->
      (* [(t, k)]: a root event at time [t]; when it runs, [k < 3]
         schedules a child [k] seconds later. Ids count in scheduling
         order. *)
      let e = Sim.Engine.create () in
      let dispatched = ref [] in
      let next_id = ref 0 in
      let fresh () =
        let id = !next_id in
        incr next_id;
        id
      in
      List.iter
        (fun (t, k) ->
          let id = fresh () in
          Sim.Engine.schedule e ~at:(float_of_int t) (fun () ->
              dispatched := id :: !dispatched;
              if k < 3 then begin
                let child = fresh () in
                Sim.Engine.schedule_after e ~delay:(float_of_int k) (fun () ->
                    dispatched := child :: !dispatched)
              end))
        specs;
      Sim.Engine.run e;
      (* The reference: pending (time, id, k) in scheduling order. *)
      let rec model pending next acc =
        match pending with
        | [] -> List.rev acc
        | (t0, _, _) :: _ ->
            let tmin = List.fold_left (fun m (t, _, _) -> min m t) t0 pending in
            let ((t, id, k) as first) = List.find (fun (t, _, _) -> t = tmin) pending in
            let rest = List.filter (fun x -> x != first) pending in
            if k < 3 then model (rest @ [ (t + k, next, 3) ]) (next + 1) (id :: acc)
            else model rest next (id :: acc)
      in
      let roots = List.mapi (fun id (t, k) -> (t, id, k)) specs in
      model roots (List.length specs) [] = List.rev !dispatched)

(* Random interleavings of [schedule], [schedule_after] and [step]
   against a reference queue: each step must dispatch the pending event
   with the least (time, insertion order), the order a stable sort by
   time gives. Offsets are small integers, so most events tie. Every
   list opens with more than 64 schedules, so the heap grows past its
   first 64 cells, and the steps that follow free cells that later
   schedules reuse. *)
type heap_op = At of int | After of int | Step

let prop_interleaved_oracle =
  let sched =
    QCheck.Gen.(
      oneof [ map (fun k -> At k) (int_range 0 3); map (fun k -> After k) (int_range 0 3) ])
  in
  let op = QCheck.Gen.(frequency [ (3, sched); (2, return Step) ]) in
  let print = function
    | At k -> Printf.sprintf "At %d" k
    | After k -> Printf.sprintf "After %d" k
    | Step -> "Step"
  in
  QCheck.Test.make ~name:"interleaved schedule/step match a (time, seq) reference" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(list print)
       QCheck.Gen.(
         map2 ( @ ) (list_size (int_range 65 100) sched) (list_size (int_range 50 300) op)))
    (fun ops ->
      let e = Sim.Engine.create () in
      let ran = ref (-1) in
      (* The reference: pending (time, id), kept sorted by time with ties
         in insertion order; [now] as the engine should have it. *)
      let pending = ref [] and now = ref 0 and next = ref 0 and peak = ref 0 in
      let add time =
        let id = !next in
        incr next;
        let rec insert = function
          | (t, _) :: _ as rest when t > time -> (time, id) :: rest
          | x :: rest -> x :: insert rest
          | [] -> [ (time, id) ]
        in
        pending := insert !pending;
        peak := max !peak (List.length !pending);
        fun () -> ran := id
      in
      let step_agrees () =
        ran := -1;
        let stepped = Sim.Engine.step e in
        match !pending with
        | [] -> not stepped
        | (time, id) :: rest ->
            pending := rest;
            now := time;
            stepped && !ran = id && Sim.Engine.now e = float_of_int time
      in
      let ok =
        List.for_all
          (function
            | At k ->
                let at = !now + k in
                Sim.Engine.schedule e ~at:(float_of_int at) (add at);
                true
            | After k ->
                Sim.Engine.schedule_after e ~delay:(float_of_int k) (add (!now + k));
                true
            | Step -> step_agrees ())
          ops
      in
      let rec drain () =
        match !pending with [] -> not (Sim.Engine.step e) | _ -> step_agrees () && drain ()
      in
      ok && Sim.Engine.pending e = List.length !pending && drain ()
      && !peak > 64)

(* Once an action has run, the queue must not keep it (or what it
   captured) reachable: a drained heap holds no stale event. *)
let test_ran_action_released () =
  let e = Sim.Engine.create () in
  let w = Weak.create 1 in
  let ran = ref 0 in
  let schedule_capturing () =
    let v = Bytes.make 16 'x' in
    Weak.set w 0 (Some v);
    Sim.Engine.schedule e ~at:1.0 (fun () -> ran := !ran + Bytes.length v)
  in
  (Sys.opaque_identity schedule_capturing) ();
  Sim.Engine.run e;
  Gc.full_major ();
  Alcotest.(check int) "action ran" 16 !ran;
  Alcotest.(check bool) "captured value collected" false (Weak.check w 0);
  (* The engine itself is still live here. *)
  Alcotest.(check int) "queue drained" 0 (Sim.Engine.pending e)

(* [run ~until] lands on [until] whether a later event is pending or the
   queue runs dry first, and never moves the clock back. *)
let test_run_until_lands () =
  let quiet = Sim.Engine.create () in
  Sim.Engine.run ~until:7.0 quiet;
  Alcotest.(check (float 0.0)) "quiet engine" 7.0 (Sim.Engine.now quiet);
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.schedule e ~at:2.0 (fun () -> incr fired);
  Sim.Engine.run ~until:5.0 e;
  Alcotest.(check int) "the last event ran" 1 !fired;
  Alcotest.(check (float 0.0)) "last event before until" 5.0 (Sim.Engine.now e);
  Sim.Engine.schedule e ~at:9.0 (fun () -> incr fired);
  Sim.Engine.run ~until:3.0 e;
  Alcotest.(check (float 0.0)) "until before the clock" 5.0 (Sim.Engine.now e);
  Alcotest.(check int) "nothing ran" 1 !fired;
  Alcotest.(check int) "the later event stays queued" 1 (Sim.Engine.pending e)

let suite =
  [
    Alcotest.test_case "time ordering" `Quick test_time_ordering;
    Alcotest.test_case "FIFO at equal times" `Quick test_fifo_at_equal_times;
    Alcotest.test_case "nested scheduling" `Quick test_schedule_during_run;
    Alcotest.test_case "run ~until" `Quick test_run_until;
    Alcotest.test_case "schedule_every stop" `Quick test_schedule_every_stop;
    Alcotest.test_case "schedule_every until" `Quick test_schedule_every_until;
    Alcotest.test_case "schedule_every until boundary" `Quick
      test_schedule_every_until_boundary;
    Alcotest.test_case "past rejected" `Quick test_past_rejected;
    Alcotest.test_case "step" `Quick test_step;
    QCheck_alcotest.to_alcotest prop_heap_order;
    QCheck_alcotest.to_alcotest prop_ties_growth_nested;
    QCheck_alcotest.to_alcotest prop_interleaved_oracle;
    Alcotest.test_case "ran action released" `Quick test_ran_action_released;
    Alcotest.test_case "run ~until lands on until" `Quick test_run_until_lands;
  ]
