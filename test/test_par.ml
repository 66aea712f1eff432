(* One-shot trial parallelism: submission-order results, determinism
   across jobs counts, failure propagation, the domain count, and the
   runner's split of one trial list into arms. The experiment-level
   checks render full result tables and require them byte-identical for
   jobs 1, 2 and 4 — the pool's core contract. *)

(* [f] over [xs] on [jobs] domains, results in the order of [xs]. *)
let map ~jobs f xs = Par.Pool.run_trials ~jobs (List.map (fun x () -> f x) xs)

let test_default_jobs () =
  Alcotest.(check bool) "at least one worker" true (Par.Pool.default_jobs () >= 1)

(* Uneven workloads: early items are the slowest, so with several workers
   completions happen far out of submission order. *)
let spin_then_square i =
  let acc = ref 0 in
  for j = 1 to (64 - i) * 20_000 do
    acc := (!acc + j) mod 7919
  done;
  ignore !acc;
  i * i

let test_map_order () =
  let xs = List.init 64 (fun i -> i) in
  let expected = List.map (fun i -> i * i) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "submission order at jobs=%d" jobs)
        expected
        (map ~jobs spin_then_square xs))
    [ 1; 2; 4 ]

let test_run_trials () =
  let thunks = List.init 10 (fun i () -> 2 * i) in
  Alcotest.(check (list int))
    "thunk results in order"
    (List.init 10 (fun i -> 2 * i))
    (Par.Pool.run_trials ~jobs:3 thunks);
  Alcotest.(check (list int)) "empty batch" [] (Par.Pool.run_trials ~jobs:3 [])

let test_exception_earliest () =
  (* Two failing trials: the one submitted first must surface, no matter
     how the workers interleave. *)
  let thunks =
    List.init 8 (fun i () ->
        if i = 2 || i = 6 then failwith (Printf.sprintf "trial-%d" i) else i)
  in
  List.iter
    (fun jobs ->
      match Par.Pool.run_trials ~jobs thunks with
      | _ -> Alcotest.fail "expected a failure to propagate"
      | exception Failure msg ->
          Alcotest.(check string)
            (Printf.sprintf "earliest failure at jobs=%d" jobs)
            "trial-2" msg)
    [ 1; 4 ]

(* [jobs = N] runs a batch on N domains, the caller of [map] included,
   and never on more domains than the batch has tasks: every task a
   worker takes waits until the caller has run one, so the batch finishes
   only if the caller takes tasks too (a pool whose caller just waits
   would spin each worker task out to its bound and fail). *)
let test_jobs_domains () =
  List.iter
    (fun (jobs, tasks) ->
      let caller = (Domain.self () :> int) in
      let caller_ran = Atomic.make false in
      let task _ =
        let self = (Domain.self () :> int) in
        if self = caller then Atomic.set caller_ran true
        else begin
          let spins = ref 0 in
          while (not (Atomic.get caller_ran)) && !spins < 20_000_000 do
            incr spins;
            Domain.cpu_relax ()
          done
        end;
        self
      in
      let domains = map ~jobs task (List.init tasks Fun.id) |> List.sort_uniq Int.compare in
      let bound = min jobs tasks in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d, %d tasks: the caller ran tasks" jobs tasks)
        true (List.mem caller domains);
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d, %d tasks: at most %d domains (%d)" jobs tasks bound
           (List.length domains))
        true
        (List.length domains <= bound))
    [ (2, 8); (3, 12); (4, 2) ]

(* [Runner.run_arms] hands each arm back exactly its own results, in
   order, whatever the arms' lengths. *)
let test_run_arms () =
  List.iter
    (fun jobs ->
      List.iter
        (fun lengths ->
          let arms = List.mapi (fun a n -> List.init n (fun i () -> (100 * a) + i)) lengths in
          Alcotest.(check (list (list int)))
            (Printf.sprintf "arms [%s] at jobs=%d"
               (String.concat "; " (List.map string_of_int lengths))
               jobs)
            (List.map (List.map (fun trial -> trial ())) arms)
            (Experiments.Runner.run_arms ~jobs arms))
        [ [ 3; 1; 4 ]; [ 2; 0; 3 ]; [ 0 ]; [] ])
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Experiment-level determinism: the rendered tables — every digit —
   must not depend on the jobs count. *)

let render tables = String.concat "\n" (List.map Stats.Table.render tables)

let check_jobs_invariant name run_and_render =
  let reference = run_and_render 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "%s: jobs=%d matches jobs=1" name jobs)
        reference (run_and_render jobs))
    [ 2; 4 ]

let test_fig6_jobs_invariant () =
  check_jobs_invariant "fig6" (fun jobs ->
      render
        (Experiments.Fig6_convergence.to_tables
           (Experiments.Fig6_convergence.run ~ases:100 ~max_poisons:2 ~jobs ~seed:11 ())))

let test_efficacy_jobs_invariant () =
  check_jobs_invariant "efficacy" (fun jobs ->
      render
        (Experiments.Sec51_efficacy.to_tables
           (Experiments.Sec51_efficacy.run ~ases:100 ~max_poisons:3 ~jobs ~seed:11 ())))

let suite =
  [
    Alcotest.test_case "default_jobs sane" `Quick test_default_jobs;
    Alcotest.test_case "map keeps submission order" `Quick test_map_order;
    Alcotest.test_case "run_trials" `Quick test_run_trials;
    Alcotest.test_case "earliest failure wins" `Quick test_exception_earliest;
    Alcotest.test_case "fig6 invariant under jobs" `Slow test_fig6_jobs_invariant;
    Alcotest.test_case "efficacy invariant under jobs" `Slow test_efficacy_jobs_invariant;
    Alcotest.test_case "jobs N runs on N domains" `Quick test_jobs_domains;
    Alcotest.test_case "run_arms returns each arm's results" `Quick test_run_arms;
  ]
