(* The domain worker pool: submission-order results, determinism across
   jobs counts, failure propagation, and lifecycle. The experiment-level
   checks render full result tables and require them byte-identical for
   jobs 1, 2 and 4 — the pool's core contract. *)

(* [f] over [xs] on the pool, results in the order of [xs]. *)
let map pool f xs = Par.Pool.run_trials pool (List.map (fun x () -> f x) xs)

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
      Par.Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check (list int))
            (Printf.sprintf "submission order at jobs=%d" jobs)
            expected
            (map pool spin_then_square xs)))
    [ 1; 2; 4 ]

let test_run_trials () =
  Par.Pool.with_pool ~jobs:3 (fun pool ->
      let thunks = List.init 10 (fun i () -> 2 * i) in
      Alcotest.(check (list int))
        "thunk results in order"
        (List.init 10 (fun i -> 2 * i))
        (Par.Pool.run_trials pool thunks);
      Alcotest.(check (list int)) "empty batch" [] (Par.Pool.run_trials pool []))

let test_exception_earliest () =
  (* Two failing trials: the one submitted first must surface, no matter
     how the workers interleave. *)
  let thunks =
    List.init 8 (fun i () ->
        if i = 2 || i = 6 then failwith (Printf.sprintf "trial-%d" i) else i)
  in
  List.iter
    (fun jobs ->
      match Par.Pool.with_pool ~jobs (fun pool -> Par.Pool.run_trials pool thunks) with
      | _ -> Alcotest.fail "expected a failure to propagate"
      | exception Failure msg ->
          Alcotest.(check string)
            (Printf.sprintf "earliest failure at jobs=%d" jobs)
            "trial-2" msg)
    [ 1; 4 ]

let test_pool_reuse () =
  Par.Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check (list int)) "first batch" [ 2; 3; 4 ] (map pool succ [ 1; 2; 3 ]);
      Alcotest.(check (list string))
        "second batch, different type" [ "1"; "2" ]
        (map pool string_of_int [ 1; 2 ]);
      Alcotest.(check (list int)) "empty input" [] (map pool succ []))

let test_shutdown () =
  (* [with_pool] shuts its pool down on the way out. *)
  let pool =
    Par.Pool.with_pool ~jobs:2 (fun pool ->
        Alcotest.(check (list int)) "works before shutdown" [ 1 ] (map pool succ [ 0 ]);
        pool)
  in
  Alcotest.check_raises "map after shutdown rejected"
    (Invalid_argument "Par.Pool.map: pool is shut down") (fun () ->
      ignore (map pool succ [ 0 ]))

(* [jobs = N] runs a batch on N domains, the caller of [map] included:
   every task a worker takes waits until the caller has run one, so the
   batch finishes only if the caller takes tasks too (a pool whose caller
   just waits would spin each worker task out to its bound and fail). *)
let test_jobs_domains () =
  List.iter
    (fun jobs ->
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
      let domains =
        Par.Pool.with_pool ~jobs (fun pool -> map pool task (List.init (4 * jobs) Fun.id))
        |> List.sort_uniq Int.compare
      in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: the caller ran tasks" jobs)
        true (List.mem caller domains);
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: at most %d domains (%d)" jobs jobs (List.length domains))
        true
        (List.length domains <= jobs))
    [ 2; 3 ]

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
    Alcotest.test_case "pool reuse across batches" `Quick test_pool_reuse;
    Alcotest.test_case "shutdown semantics" `Quick test_shutdown;
    Alcotest.test_case "fig6 invariant under jobs" `Slow test_fig6_jobs_invariant;
    Alcotest.test_case "efficacy invariant under jobs" `Slow test_efficacy_jobs_invariant;
    Alcotest.test_case "jobs N runs on N domains" `Quick test_jobs_domains;
  ]
