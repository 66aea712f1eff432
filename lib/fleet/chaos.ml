open Net

type config = {
  probe_loss : float;
  vp_mtbf : float;
  atlas_staleness : float;
}

let none = { probe_loss = 0.0; vp_mtbf = 0.0; atlas_staleness = 0.0 }

(* Mean VP downtime per crash (s). *)
let vp_mttr = 1800.0

let validate c =
  if c.probe_loss < 0.0 || c.probe_loss > 1.0 then
    invalid_arg "Chaos: probe_loss must be in [0,1]";
  if c.atlas_staleness < 0.0 || c.atlas_staleness > 1.0 then
    invalid_arg "Chaos: atlas_staleness must be in [0,1]";
  if c.vp_mtbf < 0.0 then invalid_arg "Chaos: negative vp_mtbf";
  c

type t = {
  config : config;
  rng : Prng.t;
  engine : Sim.Engine.t;
  dead : (Asn.t, unit) Hashtbl.t;
  mutable crashes : int;
  mutable lost_probes : int;
  mutable stale_refreshes : int;
}

let create ?(config = none) ~rng ~engine () =
  let config = validate config in
  {
    config;
    rng;
    engine;
    dead = Hashtbl.create 8;
    crashes = 0;
    lost_probes = 0;
    stale_refreshes = 0;
  }

let lose_probe t =
  t.config.probe_loss > 0.0
  && Prng.bernoulli t.rng ~p:t.config.probe_loss
  && begin
       t.lost_probes <- t.lost_probes + 1;
       true
     end

let skip_refresh t =
  t.config.atlas_staleness > 0.0
  && Prng.bernoulli t.rng ~p:t.config.atlas_staleness
  && begin
       t.stale_refreshes <- t.stale_refreshes + 1;
       true
     end

let vp_alive t vp = not (Hashtbl.mem t.dead vp)

(* Crash/recover renewal process per vantage point: exponential uptimes
   (mean [vp_mtbf]) and downtimes (mean [vp_mttr]), scheduled on the
   simulation clock until the horizon. *)
let rec schedule_crash t vp ~until =
  let at = Sim.Engine.now t.engine +. Prng.Dist.exponential t.rng ~mean:t.config.vp_mtbf in
  if at < until then
    Sim.Engine.schedule t.engine ~at (fun () ->
        Hashtbl.replace t.dead vp ();
        t.crashes <- t.crashes + 1;
        let downtime = Prng.Dist.exponential t.rng ~mean:vp_mttr in
        Sim.Engine.schedule_after t.engine ~delay:downtime (fun () ->
            Hashtbl.remove t.dead vp;
            schedule_crash t vp ~until))

let start t ~vantage_points ~until =
  if t.config.vp_mtbf > 0.0 then
    List.iter (fun vp -> schedule_crash t vp ~until) vantage_points

let crash_count t = t.crashes
let lost_probe_count t = t.lost_probes
let stale_refresh_count t = t.stale_refreshes
