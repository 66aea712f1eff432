(* Determinism and distribution sanity of the PRNG layer. *)

let test_determinism () =
  let a = Prng.create ~seed:123 and b = Prng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.0)) "same stream" (Prng.float a) (Prng.float b)
  done;
  let c = Prng.create ~seed:124 in
  Alcotest.(check bool) "different seed, different stream" true
    (Prng.float (Prng.create ~seed:123) <> Prng.float c)

let test_copy_and_split () =
  let parent = Prng.create ~seed:9 in
  let child1 = Prng.split parent in
  let child2 = Prng.split parent in
  Alcotest.(check bool) "split children differ" true
    (Prng.float child1 <> Prng.float child2)

(* The stream itself, pinned: a change to how the generator stores its
   state must reproduce these outputs bit for bit. Floats are compared
   exactly, through their hex ([%h]) literals. *)
type golden = {
  seed : int;
  floats : float list;  (** the first 8 [float] of a fresh generator *)
  int1000 : int;  (** [int 1000] of a fresh generator *)
  exp30 : float;  (** [Dist.exponential ~mean:30.] of a fresh generator *)
  split_child : float list;  (** 3 [float] of [split] of a fresh generator *)
  parent_after_split : float;  (** the parent's next [float] *)
}

let goldens =
  [
    {
      seed = 42;
      floats =
        [
          0x1.5780b2e0c2ecp-4; 0x1.84136619b444ep-2; 0x1.5c2ea66473c93p-1; 0x1.d9715a8e0766cp-1;
          0x1.fbcdb8ffc5d8bp-1; 0x1.8a1b4a6202f2ap-1; 0x1.7042a90ab4cbbp-1; 0x1.b3344e87d7ccp-1;
        ];
      int1000 = 85;
      exp30 = 0x1.5057d0c703c12p+1;
      split_child = [ 0x1.1dc88ba28c638p-1; 0x1.06fa1a13296f8p-4; 0x1.ca69da2018912p-2 ];
      parent_after_split = 0x1.84136619b444ep-2;
    };
    {
      seed = 7;
      floats =
        [
          0x1.66b1f5ee9df2ep-1; 0x1.1d70f6593d20ap-2; 0x1.ade3a6932a58fp-1; 0x1.f65270e63d00ep-1;
          0x1.fb5209d8fca8p-1; 0x1.bedc39c76c431p-1; 0x1.f1ae5852bd8bp-5; 0x1.abc4dcb546f6p-4;
        ];
      int1000 = 717;
      exp30 = 0x1.216a44279f8f7p+5;
      split_child = [ 0x1.204d9f404aba3p-1; 0x1.84909f5ad39acp-3; 0x1.7bdcea7de0258p-2 ];
      parent_after_split = 0x1.1d70f6593d20ap-2;
    };
  ]

let test_golden_stream () =
  let draws n f = List.init n (fun _ -> f ()) in
  let hex = Alcotest.testable (fun fmt x -> Format.fprintf fmt "%h" x) ( = ) in
  List.iter
    (fun g ->
      let name what = Printf.sprintf "seed %d: %s" g.seed what in
      let fresh () = Prng.create ~seed:g.seed in
      let r = fresh () in
      Alcotest.(check (list hex)) (name "float") g.floats (draws 8 (fun () -> Prng.float r));
      Alcotest.(check int) (name "int 1000") g.int1000 (Prng.int (fresh ()) 1000);
      Alcotest.check hex (name "exponential") g.exp30
        (Prng.Dist.exponential (fresh ()) ~mean:30.0);
      let r = fresh () in
      let child = Prng.split r in
      Alcotest.(check (list hex))
        (name "split child") g.split_child
        (draws 3 (fun () -> Prng.float child));
      Alcotest.check hex (name "parent after split") g.parent_after_split (Prng.float r))
    goldens

let test_int_bounds () =
  let rng = Prng.create ~seed:5 in
  for _ = 1 to 1000 do
    let x = Prng.int rng 7 in
    Alcotest.(check bool) "in [0,7)" true (x >= 0 && x < 7)
  done;
  Alcotest.(check int) "bound 1 is constant" 0 (Prng.int rng 1);
  Alcotest.check Alcotest.bool "bound 0 rejected" true
    (try
       ignore (Prng.int rng 0);
       false
     with Invalid_argument _ -> true)

let test_shuffle_is_permutation () =
  let rng = Prng.create ~seed:11 in
  let arr = Array.init 50 (fun i -> i) in
  let shuffled = Array.copy arr in
  Prng.shuffle rng shuffled;
  let sorted = Array.copy shuffled in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" arr sorted

let test_sample_without_replacement () =
  let rng = Prng.create ~seed:13 in
  let arr = Array.init 20 (fun i -> i) in
  let sample = Prng.sample_without_replacement rng 8 arr in
  Alcotest.(check int) "size" 8 (Array.length sample);
  let distinct = List.sort_uniq compare (Array.to_list sample) in
  Alcotest.(check int) "distinct" 8 (List.length distinct);
  let oversized = Prng.sample_without_replacement rng 100 arr in
  Alcotest.(check int) "clamped to population" 20 (Array.length oversized)

let test_exponential_mean () =
  let rng = Prng.create ~seed:17 in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.Dist.exponential rng ~mean:42.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean ~42 (got %.1f)" mean)
    true
    (mean > 39.0 && mean < 45.0)

let test_pareto_support () =
  let rng = Prng.create ~seed:19 in
  for _ = 1 to 1000 do
    let x = Prng.Dist.pareto rng ~shape:1.2 ~scale:10.0 in
    Alcotest.(check bool) "x >= scale" true (x >= 10.0)
  done

(* The normal sampler, seen through the log of [lognormal]. *)
let test_normal_moments () =
  let rng = Prng.create ~seed:23 in
  let n = 20000 in
  let xs = Array.init n (fun _ -> log (Prng.Dist.lognormal rng ~mu:5.0 ~sigma:2.0)) in
  let mean = Stats.Descriptive.mean xs in
  let sd =
    sqrt
      (Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 xs
      /. float_of_int (n - 1))
  in
  Alcotest.(check bool) "mean ~5" true (Float.abs (mean -. 5.0) < 0.1);
  Alcotest.(check bool) "sd ~2" true (Float.abs (sd -. 2.0) < 0.1)

let test_lognormal_support () =
  let rng = Prng.create ~seed:29 in
  let n = 20000 in
  let logs =
    Array.init n (fun _ ->
        let x = Prng.Dist.lognormal rng ~mu:1.0 ~sigma:0.5 in
        Alcotest.(check bool) "x > 0" true (x > 0.0);
        log x)
  in
  let mean = Stats.Descriptive.mean logs in
  Alcotest.(check bool)
    (Printf.sprintf "log mean ~1 (got %.2f)" mean)
    true
    (Float.abs (mean -. 1.0) < 0.05)

let test_pick_membership () =
  let rng = Prng.create ~seed:31 in
  let arr = [| 3; 5; 7 |] in
  let seen = Array.make 3 false in
  for _ = 1 to 300 do
    let x = Prng.pick rng arr in
    let y = Prng.pick_list rng (Array.to_list arr) in
    Alcotest.(check bool) "pick in array" true (Array.mem x arr);
    Alcotest.(check bool) "pick_list in list" true (Array.mem y arr);
    Array.iteri (fun i v -> if v = x then seen.(i) <- true) arr
  done;
  Alcotest.(check bool) "every element drawn" true (Array.for_all Fun.id seen)

let prop_float_unit =
  QCheck.Test.make ~name:"float in [0,1)" ~count:500 QCheck.small_int (fun seed ->
      let rng = Prng.create ~seed in
      let x = Prng.float rng in
      x >= 0.0 && x < 1.0)

let prop_int_uniformish =
  QCheck.Test.make ~name:"int respects bound" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.create ~seed in
      let x = Prng.int rng bound in
      x >= 0 && x < bound)

let prop_bernoulli_extremes =
  QCheck.Test.make ~name:"bernoulli 0 and 1 are constant" ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Prng.create ~seed in
      (not (Prng.bernoulli rng ~p:0.0)) && Prng.bernoulli rng ~p:1.0)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "copy and split" `Quick test_copy_and_split;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "pareto support" `Quick test_pareto_support;
    Alcotest.test_case "normal moments" `Quick test_normal_moments;
    Alcotest.test_case "lognormal support" `Quick test_lognormal_support;
    Alcotest.test_case "pick membership" `Quick test_pick_membership;
    QCheck_alcotest.to_alcotest prop_float_unit;
    QCheck_alcotest.to_alcotest prop_int_uniformish;
    QCheck_alcotest.to_alcotest prop_bernoulli_extremes;
    Alcotest.test_case "golden stream at seeds 42 and 7" `Quick test_golden_stream;
  ]
