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
  ]
