(* Descriptive statistics, ECDFs and table rendering. *)

let approx msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %.4f, got %.4f)" msg expected actual)
    true
    (Float.abs (expected -. actual) < 1e-9)

let test_descriptive_basics () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  approx "mean" 2.5 (Stats.Descriptive.mean xs);
  approx "sum" 10.0 (Stats.Descriptive.sum xs);
  approx "median" 2.5 (Stats.Descriptive.median xs);
  approx "p0 is min" 1.0 (Stats.Descriptive.percentile xs 0.0);
  approx "p100 is max" 4.0 (Stats.Descriptive.percentile xs 100.0);
  approx "p25 interpolates" 1.75 (Stats.Descriptive.percentile xs 25.0);
  let lo, hi = Stats.Descriptive.min_max xs in
  approx "min" 1.0 lo;
  approx "max" 4.0 hi

let test_descriptive_errors () =
  let assert_raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "mean of empty" true (assert_raises (fun () -> Stats.Descriptive.mean [||]));
  Alcotest.(check bool) "percentile out of range" true
    (assert_raises (fun () -> Stats.Descriptive.percentile [| 1.0 |] 101.0))

let test_fraction () =
  approx "fraction" 0.5 (Stats.Descriptive.fraction (fun x -> x > 2.0) [| 1.; 2.; 3.; 4. |]);
  approx "fraction empty" 0.0 (Stats.Descriptive.fraction (fun _ -> true) [||]);
  approx "fraction_list" 0.25
    (Stats.Descriptive.fraction_list (fun x -> x = 1) [ 1; 2; 3; 4 ])

let test_ecdf_eval () =
  let e = Stats.Ecdf.of_samples [| 1.0; 2.0; 3.0; 4.0 |] in
  approx "below support" 0.0 (Stats.Ecdf.eval e 0.5);
  approx "at first" 0.25 (Stats.Ecdf.eval e 1.0);
  approx "between" 0.5 (Stats.Ecdf.eval e 2.5);
  approx "at last" 1.0 (Stats.Ecdf.eval e 4.0);
  approx "above support" 1.0 (Stats.Ecdf.eval e 100.0);
  approx "quantile 0.5" 2.0 (Stats.Ecdf.quantile e 0.5);
  approx "quantile 1.0" 4.0 (Stats.Ecdf.quantile e 1.0)

let test_ecdf_weighted () =
  (* One outage of 10 units dominates three of 1 unit: the weighted CDF
     at 1 is 3/13 while the plain CDF is 3/4 — exactly the Fig. 1
     contrast. *)
  let values = [| 1.0; 1.0; 1.0; 10.0 |] in
  let plain = Stats.Ecdf.of_samples values in
  let weighted = Stats.Ecdf.weighted ~values ~weights:values in
  approx "plain at 1" 0.75 (Stats.Ecdf.eval plain 1.0);
  approx "weighted at 1" (3.0 /. 13.0) (Stats.Ecdf.eval weighted 1.0)

let test_ecdf_series () =
  let e = Stats.Ecdf.of_samples [| 1.0; 10.0; 100.0 |] in
  let series = Stats.Ecdf.series_at e [ 1.0; 3.0; 10.0; 30.0; 100.0 ] in
  Alcotest.(check int) "5 points" 5 (List.length series);
  let ys = List.map snd series in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (monotone ys)

let test_table_render () =
  let t = Stats.Table.create ~title:"T" ~columns:[ "a"; "bb" ] in
  Stats.Table.add_row t [ "x"; "y" ];
  Stats.Table.add_rows t [ [ "long-cell"; "z" ] ];
  let rendered = Stats.Table.render t in
  let contains needle =
    let nlen = String.length needle and hlen = String.length rendered in
    let rec go i = i + nlen <= hlen && (String.sub rendered i nlen = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has title" true (contains "== T ==");
  Alcotest.(check bool) "has header" true (contains "bb");
  Alcotest.(check bool) "has cell" true (contains "long-cell");
  (* Cell count mismatch must raise. *)
  Alcotest.check Alcotest.bool "bad row rejected" true
    (try
       Stats.Table.add_row t [ "only-one" ];
       false
     with Invalid_argument _ -> true);
  Alcotest.(check string) "pct formatting" "76.5%" (Stats.Table.cell_pct 0.765);
  Alcotest.(check string) "float formatting" "1.50" (Stats.Table.cell_float 1.5)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(pair (array_of_size (QCheck.Gen.int_range 1 40) (float_range (-100.) 100.))
              (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (xs, (p1, p2)) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.Descriptive.percentile xs lo <= Stats.Descriptive.percentile xs hi)

let prop_ecdf_bounded =
  QCheck.Test.make ~name:"ecdf in [0,1]" ~count:200
    QCheck.(pair (array_of_size (QCheck.Gen.int_range 1 40) (float_range (-50.) 50.))
              (float_range (-100.) 100.))
    (fun (xs, x) ->
      let e = Stats.Ecdf.of_samples xs in
      let y = Stats.Ecdf.eval e x in
      y >= 0.0 && y <= 1.0)

let suite =
  [
    Alcotest.test_case "descriptive basics" `Quick test_descriptive_basics;
    Alcotest.test_case "descriptive errors" `Quick test_descriptive_errors;
    Alcotest.test_case "fractions" `Quick test_fraction;
    Alcotest.test_case "ecdf eval/quantile" `Quick test_ecdf_eval;
    Alcotest.test_case "ecdf weighted (Fig. 1 contrast)" `Quick test_ecdf_weighted;
    Alcotest.test_case "ecdf series" `Quick test_ecdf_series;
    Alcotest.test_case "table rendering" `Quick test_table_render;
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
    QCheck_alcotest.to_alcotest prop_ecdf_bounded;
  ]
