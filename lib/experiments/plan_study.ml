(** Planned vs computed remediation on a recurring-outage workload.

    The same fleet, same seeds, run twice: once with the plan cache
    (offline planner seed + demand-planned misses + breaker drops and
    demotion)
    consulted before every decision, once computing every remediation
    from scratch. Both runs charge [decision_latency] simulated seconds
    per fresh decision round; a plan hit skips it — so the repair-latency
    gap between the two columns is exactly the time the precomputed
    failure map saves, and the hit-rate table says how often the map had
    the answer ready.

    Worlds decompose and merge as in {!Fleet_study} ({!Fleet_study.worlds}
    and {!Fleet_study.merge}), and both modes of one world share a seed
    — so the comparison is paired. Both arms run as one trial list
    ({!Runner.run_arms}, planned worlds first), so every table is
    byte-identical at any [--jobs]. *)

type result = {
  decision_latency : float;
  planned : Fleet_study.result;
  computed : Fleet_study.result;
}

(* The recurring-outage workload: few targets failing often, so the same
   (target, failure-class) pairs come back — the regime precomputed
   plans exist for. Chaos and control-plane faults stay off so the two
   modes differ only in how decisions are produced. *)
let default_config =
  {
    Fleet.Service.default_config with
    Fleet.Service.target_count = 10;
    duration = 43200.0;
    outages_per_day = 48.0;
    (* 1.5x the recheck interval: a latency equal to the recheck period
       can resonate with the age-gate grid and land both arms' poisons on
       the same tick, hiding the cost it is meant to model. *)
    decision_latency = 180.0;
  }

let run ?(config = default_config) ?(targets = 40) ?(jobs = 1) ~seed () =
  if targets <= 0 then invalid_arg "Plan_study.run: targets must be positive";
  let arm planning = Fleet_study.worlds ~config:{ config with planning } ~targets ~seed in
  let merge = Fleet_study.merge ~targets ~days:(config.Fleet.Service.duration /. 86400.0) in
  match Runner.run_arms ~jobs [ arm true; arm false ] with
  | [ planned; computed ] ->
      {
        decision_latency = config.Fleet.Service.decision_latency;
        planned = merge planned;
        computed = merge computed;
      }
  | _ -> assert false

(* Hits over lookups, in [0, 1]; [0.] when there were no lookups. *)
let hit_rate (m : Fleet_study.result) =
  let lookups = m.plan_hits + m.plan_misses in
  if lookups = 0 then 0.0 else float_of_int m.plan_hits /. float_of_int lookups

let quantile samples q =
  match samples with
  | [] -> None
  | _ ->
      let cdf = Stats.Ecdf.of_samples (Array.of_list samples) in
      Some (Stats.Ecdf.quantile cdf q)

let to_tables r =
  let cache =
    Stats.Table.create ~title:"Plan cache on the recurring-outage workload"
      ~columns:[ "metric"; "value" ]
  in
  let p = r.planned in
  Stats.Table.add_rows cache
    [
      [ "observation window (days)"; Stats.Table.cell_float ~decimals:2 p.days ];
      [ "worlds x targets"; Printf.sprintf "%d x ~%d" p.shards (p.targets / p.shards) ];
      [ "lookups (hits + misses)"; Stats.Table.cell_int (p.plan_hits + p.plan_misses) ];
      [ "  served from plan (hits)"; Stats.Table.cell_int p.plan_hits ];
      [ "  computed fresh (misses)"; Stats.Table.cell_int p.plan_misses ];
      [ "hit rate"; Stats.Table.cell_pct (hit_rate p) ];
      [ "invalidations (breaker)"; Stats.Table.cell_int p.plan_invalidations ];
      [ "demotions (watchdog divergence)"; Stats.Table.cell_int p.plan_demotions ];
    ];
  let fmt_q samples q =
    match quantile samples q with
    | Some v -> Stats.Table.cell_float ~decimals:0 v
    | None -> "-"
  in
  let latency =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "Repair latency, detection -> sentinel-confirmed (fresh decision costs %.0fs)"
           r.decision_latency)
      ~columns:[ "metric"; "planned"; "computed" ]
  in
  let c = r.computed in
  Stats.Table.add_rows latency
    [
      [ "outages detected"; Stats.Table.cell_int p.detected; Stats.Table.cell_int c.detected ];
      [ "repaired"; Stats.Table.cell_int p.repaired; Stats.Table.cell_int c.repaired ];
      [ "stood down"; Stats.Table.cell_int p.stood_down; Stats.Table.cell_int c.stood_down ];
      [ "gave up"; Stats.Table.cell_int p.gave_up; Stats.Table.cell_int c.gave_up ];
      [ "poisons announced"; Stats.Table.cell_int p.poisons; Stats.Table.cell_int c.poisons ];
      [
        "reroutes confirmed";
        Stats.Table.cell_int (List.length p.time_to_confirm);
        Stats.Table.cell_int (List.length c.time_to_confirm);
      ];
      [
        "time to reroute p50 (s)";
        fmt_q p.time_to_confirm 0.5;
        fmt_q c.time_to_confirm 0.5;
      ];
      [
        "time to reroute p90 (s)";
        fmt_q p.time_to_confirm 0.9;
        fmt_q c.time_to_confirm 0.9;
      ];
      [ "time to repair p50 (s)"; fmt_q p.time_to_repair 0.5; fmt_q c.time_to_repair 0.5 ];
      [ "time to repair p90 (s)"; fmt_q p.time_to_repair 0.9; fmt_q c.time_to_repair 0.9 ];
    ];
  [ cache; latency ]
