let quantile_cell (h : Obs.Metrics.hist_row) q =
  match Obs.Metrics.quantile h q with
  | None -> "-"
  | Some b when Float.is_finite b -> Printf.sprintf "<=%g" b
  | Some _ -> Printf.sprintf ">%g" h.Obs.Metrics.bounds.(Array.length h.Obs.Metrics.bounds - 1)

let print () =
  let snap = Obs.Metrics.snapshot () in
  let table =
    Stats.Table.create ~title:"Obs metrics (cumulative, merged over domains)"
      ~columns:[ "metric"; "kind"; "value" ]
  in
  List.iter
    (fun (n, v) -> Stats.Table.add_row table [ n; "counter"; string_of_int v ])
    snap.Obs.Metrics.counters;
  List.iter
    (fun (n, v) -> Stats.Table.add_row table [ n; "gauge (max)"; string_of_int v ])
    snap.Obs.Metrics.gauges;
  List.iter
    (fun (h : Obs.Metrics.hist_row) ->
      Stats.Table.add_row table
        [
          h.hname;
          "histogram";
          Printf.sprintf "p50 %s p90 %s p99 %s" (quantile_cell h 0.5) (quantile_cell h 0.9)
            (quantile_cell h 0.99);
        ])
    snap.Obs.Metrics.hists;
  Stats.Table.print table
