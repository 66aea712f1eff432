(** Repair robustness under control-plane fault injection.

    Re-runs the fleet study while {!Bgp.Faults} flaps sessions, fails
    links, crashes routers and corrupts the update wire at increasing
    intensity, and reports what the remediation state machine did about
    it: how often the watchdog had to re-announce a flushed poison, how
    often it rolled a failed poison back, when the circuit breaker gave
    up on a target, and what the faults cost in repair rate and time to
    repair. Intensity 0 is the fault-free control — by construction it
    is byte-identical to {!Fleet_study} with [Bgp.Faults.none].

    Every intensity's {!Fleet_study.worlds} run as one trial list
    ({!Runner.run_arms}, highest intensity first), and each intensity's
    reports merge with {!Fleet_study.merge}, so a row equals that
    intensity's {!Fleet_study.run} at any [--jobs]. *)

type row = { intensity : float; result : Fleet_study.result }

type result = {
  profile : Bgp.Faults.config;  (** The intensity-1 fault profile. *)
  rows : row list;  (** One merged fleet per intensity, ascending. *)
}

(* The intensity-1.0 anchor: every class on, at rates that make faults
   common enough to exercise the watchdog within one observation window
   without drowning the outage signal the fleet exists to repair. *)
let default_profile =
  {
    Bgp.Faults.session_flap_mtbf = 14400.0 (* a flap per link every ~4 h *);
    session_flap_downtime = 30.0;
    link_mtbf = 43200.0;
    link_mttr = 900.0;
    router_mtbf = 86400.0;
    router_mttr = 300.0;
    update_loss = 0.01;
    update_dup = 0.005;
  }

let default_intensities = [ 0.0; 0.5; 1.0; 2.0 ]

let run ?(config = Fleet.Service.default_config) ?(profile = default_profile)
    ?(intensities = default_intensities) ?(targets = 100) ?(jobs = 1) ~seed () =
  if intensities = [] then invalid_arg "Fault_study.run: intensities must be non-empty";
  let profile = Bgp.Faults.validate profile in
  if List.exists (fun intensity -> intensity < 0.0) intensities then
    invalid_arg "Fault_study.run: intensity must be >= 0";
  if targets <= 0 then invalid_arg "Fault_study.run: targets must be positive";
  let ascending = List.sort Float.compare intensities in
  let arm intensity =
    let faults = Bgp.Faults.scale profile intensity in
    Fleet_study.worlds ~config:{ config with Fleet.Service.faults } ~targets ~seed
  in
  (* Highest intensity first: its worlds cost the most, so the cheaper
     ones fill the domains around them. *)
  let arms = List.rev (Runner.run_arms ~jobs (List.rev_map arm ascending)) in
  let merge = Fleet_study.merge ~targets ~days:(config.Fleet.Service.duration /. 86400.0) in
  {
    profile;
    rows = List.map2 (fun intensity reports -> { intensity; result = merge reports }) ascending arms;
  }

let to_tables r =
  let cell_intensity i = Stats.Table.cell_float ~decimals:1 i in
  let faults =
    Stats.Table.create ~title:"Injected control-plane faults per intensity"
      ~columns:
        [ "intensity"; "session flaps"; "link failures"; "router crashes"; "lost"; "dup" ]
  in
  List.iter
    (fun { intensity; result = s } ->
      Stats.Table.add_row faults
        [
          cell_intensity intensity;
          Stats.Table.cell_int s.Fleet_study.session_flaps;
          Stats.Table.cell_int s.Fleet_study.link_failures;
          Stats.Table.cell_int s.Fleet_study.router_crashes;
          Stats.Table.cell_int s.Fleet_study.updates_dropped;
          Stats.Table.cell_int s.Fleet_study.updates_duplicated;
        ])
    r.rows;
  let outcomes =
    Stats.Table.create ~title:"Repair pipeline outcomes vs fault intensity"
      ~columns:
        [ "intensity"; "detected"; "repaired"; "stood down"; "gave up"; "open"; "terminal" ]
  in
  List.iter
    (fun { intensity; result = s } ->
      let terminal =
        if s.Fleet_study.detected = 0 then "-"
        else
          Stats.Table.cell_pct
            (float_of_int
               (s.Fleet_study.repaired + s.Fleet_study.stood_down + s.Fleet_study.gave_up)
            /. float_of_int s.Fleet_study.detected)
      in
      Stats.Table.add_row outcomes
        [
          cell_intensity intensity;
          Stats.Table.cell_int s.Fleet_study.detected;
          Stats.Table.cell_int s.Fleet_study.repaired;
          Stats.Table.cell_int s.Fleet_study.stood_down;
          Stats.Table.cell_int s.Fleet_study.gave_up;
          Stats.Table.cell_int s.Fleet_study.unfinished;
          terminal;
        ])
    r.rows;
  let watchdog =
    Stats.Table.create
      ~title:"Watchdog and circuit breaker vs fault intensity"
      ~columns:
        [
          "intensity"; "poisons"; "re-announced"; "rolled back"; "breaker trips";
          "TTR p50 (s)"; "TTR p90 (s)";
        ]
  in
  List.iter
    (fun { intensity; result = s } ->
      let q p =
        match Fleet_study.ttr_cdf s with
        | None -> "-"
        | Some cdf -> Stats.Table.cell_float ~decimals:0 (Stats.Ecdf.quantile cdf p)
      in
      Stats.Table.add_row watchdog
        [
          cell_intensity intensity;
          Stats.Table.cell_int s.Fleet_study.poisons;
          Stats.Table.cell_int s.Fleet_study.reannounced;
          Stats.Table.cell_int s.Fleet_study.rolled_back;
          Stats.Table.cell_int s.Fleet_study.breaker_trips;
          q 0.5;
          q 0.9;
        ])
    r.rows;
  [ faults; outcomes; watchdog ]
