open Net

type config = {
  decide : Decide.config;
  announce_spacing : float;
  decision_latency : float;
}

let default_config =
  {
    decide = Decide.default_config;
    announce_spacing = 0.0;
    decision_latency = 0.0;
  }

let detection_lag =
  float_of_int Measurement.Monitor.fail_threshold *. Measurement.Monitor.interval

let max_isolation_attempts = 3
let retry_backoff = 60.0
let backoff_multiplier = 2.0
let max_backoff = 600.0
let pipeline_timeout = 21600.0
let max_poison_announcements = 3
let recheck_interval = 120.0
let poison_deadline = 3600.0

type hooks = {
  probe_gate : (now:float -> cost:int -> bool) option;
  monitor_loss : (unit -> bool) option;
  isolation_attempt : (target:Asn.t -> attempt:int -> [ `Proceed | `Lost | `Denied ]) option;
  vantage_filter : (Asn.t -> bool) option;
  plan_consult :
    (target:Asn.t ->
    diagnosis:Isolation.diagnosis ->
    outage_age:float ->
    breaker_open:(Asn.t -> bool) ->
    Decide.verdict option)
    option;
  plan_demote : (poison:Asn.t -> reason:string -> unit) option;
}

(* lint: allow LG-DEAD-EXPORT (seam: test_lifeguard.ml and test_plan.ml set one hook) *)
let no_hooks =
  {
    probe_gate = None;
    monitor_loss = None;
    isolation_attempt = None;
    vantage_filter = None;
    plan_consult = None;
    plan_demote = None;
  }

type event =
  | Outage_detected of { vp : Asn.t; target : Asn.t }
  | Diagnosed of Isolation.diagnosis
  | Decision of Decide.verdict
  | Isolation_retry of { target : Asn.t; attempt : int; delay : float }
  | Poison_queued of { target : Asn.t; poison : Asn.t }
  | Poison_announced of Asn.t
  | Poison_confirmed of Asn.t
  | Repair_confirmed of { target : Asn.t; poison : Asn.t }
  | Poison_reannounced of { target : Asn.t; announcement : int }
  | Poison_rolled_back of { target : Asn.t; reason : string }
  | Breaker_open of Asn.t
  | Recovery_detected of Asn.t
  | Unpoisoned
  | Gave_up of string

let pp_event fmt = function
  | Outage_detected { vp; target } ->
      Format.fprintf fmt "outage detected: %a cannot reach %a" Asn.pp target Asn.pp vp
  | Diagnosed d -> Format.fprintf fmt "diagnosed: %a" Isolation.pp_diagnosis d
  | Decision v -> Format.fprintf fmt "decision: %a" Decide.pp_verdict v
  | Isolation_retry { target; attempt; delay } ->
      Format.fprintf fmt "isolation toward %a lost (attempt %d); retrying in %.0fs" Asn.pp
        target attempt delay
  | Poison_queued { target; poison } ->
      Format.fprintf fmt "queued poison of %a for %a behind an active announcement" Asn.pp
        poison Asn.pp target
  | Poison_announced a -> Format.fprintf fmt "poisoned %a" Asn.pp a
  | Poison_confirmed a ->
      Format.fprintf fmt "poison of %a confirmed in force at the vantage feeds" Asn.pp a
  | Repair_confirmed { target; poison } ->
      Format.fprintf fmt "repair of %a confirmed: traffic rerouted around %a" Asn.pp target
        Asn.pp poison
  | Poison_reannounced { target; announcement } ->
      Format.fprintf fmt "re-announced poison of %a (announcement %d)" Asn.pp target
        announcement
  | Poison_rolled_back { target; reason } ->
      Format.fprintf fmt "rolled back poison of %a: %s" Asn.pp target reason
  | Breaker_open a ->
      Format.fprintf fmt "circuit breaker open for %a; refusing to re-poison" Asn.pp a
  | Recovery_detected a -> Format.fprintf fmt "recovery detected through %a" Asn.pp a
  | Unpoisoned -> Format.pp_print_string fmt "unpoisoned: back to baseline"
  | Gave_up reason -> Format.fprintf fmt "gave up: %s" reason

type state = Idle | Isolating | Poisoned of Asn.t

(* Where an in-flight pipeline stands, and so what its [p_due] deadline
   means. Declared after [state], so a bare [Isolating] is this type's
   unless the expected type says otherwise. *)
type pipeline_phase =
  | Isolating  (** mid-isolation *)
  | Deciding  (** decision scheduled at [p_due] *)
  | Waiting  (** Wait verdict; recheck at [p_due] *)
  | Backoff  (** lost/denied attempt; retry at [p_due] *)

let phase_to_string = function
  | Isolating -> "isolating"
  | Deciding -> "deciding"
  | Waiting -> "waiting"
  | Backoff -> "backoff"

(* One in-flight isolate/decide pipeline per affected target. The phase
   and deadline mirror what would otherwise live only inside an engine
   timer closure, so the snapshot digest covers them. *)
type pipeline = {
  p_vp : Asn.t;
  p_target : Asn.t;
  p_started : float;
  mutable p_attempt : int;
  mutable p_phase : pipeline_phase;
  mutable p_due : float;
}

(* The single poison currently announced for the production prefix, with
   every target it is meant to repair: concurrent outages blamed on the
   same AS attach here instead of queueing a duplicate announcement. The
   watchdog fields supervise the announcement itself: when it was first
   sent, how many times (initial + idempotent re-announces), whether the
   vantage feeds ever showed it in force, and whether a rollback is
   already scheduled (awaiting spacing). *)
type active_poison = {
  ap_target : Asn.t;
  mutable ap_affected : Asn.t list;
  ap_first : float;
  ap_planned : bool;  (** Served from the plan cache rather than computed fresh. *)
  mutable ap_announcements : int;
  mutable ap_confirmed : bool;
  mutable ap_rolling_back : bool;
  mutable ap_rollback_reason : string;  (** cause recorded when the rollback was decided *)
  mutable ap_next_check : float;  (** deadline of the armed recovery/watchdog check *)
  mutable ap_unpoison_due : float option;  (** paced unpoison pending at this time *)
  mutable ap_rollback_due : float option;  (** paced rollback pending at this time *)
}

type t = {
  config : config;
  hooks : hooks;
  env : Dataplane.Probe.env;
  atlas : Measurement.Atlas.t;
  responsiveness : Measurement.Responsiveness.t;
  plan : Remediate.plan;
  vantage_points : Asn.t list;
  pipelines : (Asn.t, pipeline) Hashtbl.t;
  mutable active : active_poison option;
  queue : (Asn.t * Asn.t * bool) Queue.t;
      (** (target, poison, planned) FIFO awaiting the prefix *)
  mutable last_announce : float;
  mutable events : (float * event) list;  (** newest first *)
  mutable monitors : Measurement.Monitor.t list;
  outage_started : (Asn.t, float) Hashtbl.t;
      (** First-failure estimate per target, persisted across isolation
          rounds so the age gate measures the true outage age. *)
  collector : Bgp.Network.Collector.t;
      (** The watchdog's BGP feed: loc-RIB views of the vantage points,
          attached before the baseline goes out so every view is known.
          This is how LIFEGUARD verifies a poison actually propagated —
          public route collectors, not data-plane probes (the data plane
          is exactly what's broken during an outage). *)
  breaker : (Asn.t, unit) Hashtbl.t;
      (** Per-target circuit breaker: ASes whose poisons were rolled back
          (flushed, filtered, never propagated, or collateral) are not
          poisoned again. *)
  mutable breaker_trips : int;
  journal : Recover.Journal.t;
      (** Write-ahead journal for externally-visible actions, and the one
          record of them: outcomes, re-announces and rollbacks are read
          back from it. *)
}

let engine t = Bgp.Network.engine t.env.Dataplane.Probe.net
let now t = Sim.Engine.now (engine t)

(* Route an externally-visible action through the write-ahead journal:
   record first, effect second. *)
let journaled t action ~effect = Recover.Journal.logged t.journal ~at:(now t) action ~effect

let log t event = t.events <- (now t, event) :: t.events

let finish t target kind reason =
  journaled t (Recover.Record.Outcome { Recover.Record.target; kind; reason }) ~effect:ignore

let create ?(config = default_config) ?(hooks = no_hooks) ?(journal = Recover.Journal.create ())
    ~env ~atlas ~responsiveness ~plan ~vantage_points () =
  (* Attach the watchdog feed before the baseline goes out, so the
     vantage views are populated by the baseline convergence itself. *)
  let collector =
    Bgp.Network.Collector.attach env.Dataplane.Probe.net ~peers:vantage_points
  in
  Remediate.announce_baseline env.Dataplane.Probe.net plan;
  {
    config;
    hooks;
    env;
    atlas;
    responsiveness;
    plan;
    vantage_points;
    pipelines = Hashtbl.create 8;
    active = None;
    queue = Queue.create ();
    last_announce = neg_infinity;
    events = [];
    monitors = [];
    outage_started = Hashtbl.create 8;
    collector;
    breaker = Hashtbl.create 4;
    breaker_trips = 0;
    journal;
  }

(* The origin's probes are sourced from its production prefix: reverse
   failures scoped to the announced space must be visible to them. *)
let origin_source t = Prefix.nth_address t.plan.Remediate.production 1

let live_vantage_points t =
  match t.hooks.vantage_filter with
  | Some alive -> List.filter alive t.vantage_points
  | None -> t.vantage_points

let isolation_context t =
  {
    Isolation.env = t.env;
    atlas = t.atlas;
    responsiveness = t.responsiveness;
    vantage_points = live_vantage_points t;
    source_overrides = [ (t.plan.Remediate.origin, origin_source t) ];
  }

let target_address t target = Dataplane.Forward.probe_address t.env.Dataplane.Probe.net target

let target_reachable t ~vp ~target =
  Dataplane.Probe.ping_from t.env ~src:vp ~src_ip:(origin_source t)
    ~dst:(target_address t target)

(* Announcement pacing: BGP speakers damp flappy prefixes, so poisons and
   unpoisons alike keep [announce_spacing] (the paper suggests ~90 min
   between poisonings) from the previous announcement. *)
let announce_delay t = Float.max 0.0 (t.last_announce +. t.config.announce_spacing -. now t)

let backoff_delay attempt =
  Float.min max_backoff (retry_backoff *. (backoff_multiplier ** float_of_int (attempt - 1)))

let stand_down t ~target reason =
  Hashtbl.remove t.outage_started target;
  Hashtbl.remove t.pipelines target;
  log t (Gave_up reason);
  finish t target Recover.Record.Stood_down reason

(* A terminal failure of the repair itself (retry budgets, deadlines,
   the circuit breaker): same bookkeeping as a stand-down, but the
   outcome records the give-up reason so operators can tell "nothing to
   do" from "tried and failed". *)
let give_up t ~target reason =
  Hashtbl.remove t.outage_started target;
  Hashtbl.remove t.pipelines target;
  log t (Gave_up reason);
  finish t target Recover.Record.Gave_up reason

(* The paced half of a rollback: withdraw, give up on every covered
   target, free the prefix. Runs inline or from the spacing timer. *)
let roll_now t ap ~pump =
  match t.active with
  | Some current when current == ap ->
      ap.ap_rollback_due <- None;
      journaled t
        (Recover.Record.Unpoison
           { poison = ap.ap_target; repaired = false; reason = ap.ap_rollback_reason })
        ~effect:(fun () -> Remediate.unpoison t.env.Dataplane.Probe.net t.plan);
      t.active <- None;
      t.last_announce <- now t;
      log t Unpoisoned;
      List.iter
        (fun target -> give_up t ~target ap.ap_rollback_reason)
        (List.rev ap.ap_affected);
      pump ()
  | _ -> ()

(* Withdraw a failed poison (paced like any announcement), give up on
   every target it covered, and open the breaker for the poisoned AS:
   its routers flushed, filtered or choked on the announcement, so
   re-poisoning it would repeat the failure. *)
let rollback t ap ~pump reason =
  if not ap.ap_rolling_back then begin
    ap.ap_rolling_back <- true;
    ap.ap_rollback_reason <- reason;
    log t (Poison_rolled_back { target = ap.ap_target; reason });
    journaled t
      (Recover.Record.Breaker_trip { poison = ap.ap_target; reason })
      ~effect:(fun () -> Hashtbl.replace t.breaker ap.ap_target ());
    (* A served plan whose watchdog outcome diverged: demote it back to
       compute-fresh. *)
    (match t.hooks.plan_demote with
    | Some f when ap.ap_planned ->
        journaled t
          (Recover.Record.Plan_demotion { poison = ap.ap_target; reason })
          ~effect:(fun () -> f ~poison:ap.ap_target ~reason)
    | _ -> ());
    let delay = announce_delay t in
    if delay <= 0.0 then roll_now t ap ~pump
    else begin
      ap.ap_rollback_due <- Some (now t +. delay);
      Sim.Engine.schedule_after (engine t) ~delay (fun () -> roll_now t ap ~pump)
    end
  end

(* The poison watchdog: one tick per recheck while the poison stands and
   the sentinel shows no repair. The vantage-point BGP feeds say whether
   the announcement actually took — every known view's route for the
   production prefix should carry the poisoned AS. A view with a route
   that avoids it is stale (some router flushed or lost the poison):
   re-announce idempotently, paced by the spacing and capped by the
   per-target breaker. A majority of views with no route at all is
   collateral damage; no poisoned view anywhere past the deadline means
   the poison never propagated. Both roll back. *)
let watchdog_tick t ap ~pump =
  if not ap.ap_rolling_back then begin
    let prefix = t.plan.Remediate.production in
    let views =
      List.filter_map
        (fun vp ->
          match Bgp.Network.Collector.route_view t.collector ~peer:vp ~prefix with
          | Some view -> Some (vp, view)
          | None -> None)
        t.vantage_points
    in
    match views with
    | [] -> ()  (* no feed data: the watchdog has no evidence to act on *)
    | _ :: _ ->
        let carries_poison = function
          | Some entry -> Bgp.As_path.contains ap.ap_target entry.Bgp.Route.ann.Bgp.Route.path
          | None -> false
        in
        let poisoned, rest = List.partition (fun (_, v) -> carries_poison v) views in
        let stale, lost =
          List.partition (fun (_, v) -> match v with Some _ -> true | None -> false) rest
        in
        (* Let a fresh announcement converge before judging the views. *)
        let settled = now t -. t.last_announce >= 2.0 *. recheck_interval in
        if 2 * List.length lost > List.length views then begin
          if settled then
            rollback t ap ~pump
              (Printf.sprintf "collateral damage: %d of %d vantage feeds lost the route"
                 (List.length lost) (List.length views))
        end
        else if poisoned = [] && now t -. ap.ap_first > poison_deadline then
          rollback t ap ~pump "poison never propagated within deadline"
        else if stale = [] then begin
          match poisoned with
          | [] -> ()  (* not propagated yet; the deadline above arbitrates *)
          | _ :: _ ->
              if not ap.ap_confirmed then begin
                ap.ap_confirmed <- true;
                log t (Poison_confirmed ap.ap_target);
                List.iter
                  (fun target ->
                    log t (Repair_confirmed { target; poison = ap.ap_target }))
                  (List.rev ap.ap_affected)
              end
        end
        else if settled then begin
          (* Stale views: some router flushed or filtered the poison. *)
          if ap.ap_announcements >= max_poison_announcements then
            rollback t ap ~pump
              (Printf.sprintf "poison flushed or filtered after %d announcements"
                 ap.ap_announcements)
          else if announce_delay t <= 0.0 then begin
            journaled t
              (Recover.Record.Poison_reannounce
                 { poison = ap.ap_target; announcement = ap.ap_announcements + 1 })
              ~effect:(fun () -> Remediate.reannounce t.env.Dataplane.Probe.net t.plan);
            t.last_announce <- now t;
            ap.ap_announcements <- ap.ap_announcements + 1;
            log t (Poison_reannounced { target = ap.ap_target; announcement = ap.ap_announcements })
          end
          (* else: spacing not yet satisfied; the next tick retries *)
        end
  end

(* The paced half of a repair-confirmed withdrawal. Runs inline or from
   the spacing timer. *)
let unpoison_now t ap ~pump =
  match t.active with
  | Some current when current == ap ->
      ap.ap_unpoison_due <- None;
      journaled t
        (Recover.Record.Unpoison { poison = ap.ap_target; repaired = true; reason = "" })
        ~effect:(fun () -> Remediate.unpoison t.env.Dataplane.Probe.net t.plan);
      t.active <- None;
      t.last_announce <- now t;
      log t Unpoisoned;
      List.iter
        (fun target -> finish t target Recover.Record.Repaired "")
        (List.rev ap.ap_affected);
      pump ()
  | _ -> ()

(* While poisoned, test the sentinel periodically; unpoison on repair,
   otherwise let the watchdog supervise the announcement itself. The
   armed deadline lives in [ap_next_check], so the snapshot digest
   covers it. *)
let rec arm_recovery_check t ap ~pump =
  let delay = recheck_interval in
  ap.ap_next_check <- now t +. delay;
  Sim.Engine.schedule_after (engine t) ~delay (fun () -> recovery_tick t ap ~pump)

and recovery_tick t ap ~pump =
  match t.active with
  | Some current when current == ap ->
      if
        (not ap.ap_rolling_back)
        && Remediate.is_recovered t.env t.plan ~through:ap.ap_target ~targets:ap.ap_affected
      then begin
        log t (Recovery_detected ap.ap_target);
        let delay = announce_delay t in
        if delay <= 0.0 then unpoison_now t ap ~pump
        else begin
          ap.ap_unpoison_due <- Some (now t +. delay);
          Sim.Engine.schedule_after (engine t) ~delay (fun () -> unpoison_now t ap ~pump)
        end
      end
      else begin
        watchdog_tick t ap ~pump;
        match t.active with
        | Some current when current == ap -> arm_recovery_check t ap ~pump
        | _ -> ()
      end
  | _ -> ()

(* Apply a poison now (spacing already satisfied), unless the outage
   resolved while the announcement waited its turn or the blamed AS has
   already proven unpoisonable. *)
let rec apply_poison t ~vp ~target ~poison_target ~planned =
  if Hashtbl.mem t.breaker poison_target then begin
    t.breaker_trips <- t.breaker_trips + 1;
    log t (Breaker_open poison_target);
    give_up t ~target
      (Printf.sprintf "circuit breaker open for %s" (Asn.to_string poison_target));
    pump_queue t
  end
  else if target_reachable t ~vp ~target then begin
    Hashtbl.remove t.outage_started target;
    log t (Gave_up "outage resolved before poisoning");
    finish t target Recover.Record.Stood_down "outage resolved before poisoning";
    pump_queue t
  end
  else begin
    Hashtbl.remove t.outage_started target;
    journaled t
      (Recover.Record.Poison_announce { target; poison = poison_target; planned })
      ~effect:(fun () ->
        Remediate.poison t.env.Dataplane.Probe.net t.plan ~target:poison_target);
    let ap =
      {
        ap_target = poison_target;
        ap_affected = [ target ];
        ap_first = now t;
        ap_planned = planned;
        ap_announcements = 1;
        ap_confirmed = false;
        ap_rolling_back = false;
        ap_rollback_reason = "";
        ap_next_check = now t;
        ap_unpoison_due = None;
        ap_rollback_due = None;
      }
    in
    t.active <- Some ap;
    t.last_announce <- now t;
    log t (Poison_announced poison_target);
    arm_recovery_check t ap ~pump:(fun () -> pump_queue t)
  end

(* Drain the remediation queue once the prefix is free: the next poison
   goes out after the damping-aware spacing, re-checked at send time. The
   head stays queued until its announcement actually goes out, so the
   unfinished accounting and notify_outage's re-entrancy guard keep seeing
   it while it waits out the spacing, and FIFO order is preserved. *)
and pump_queue t =
  match t.active with
  | Some _ -> ()
  | None ->
      if Queue.is_empty t.queue then ()
      else begin
        let delay = announce_delay t in
        if delay > 0.0 then
          Sim.Engine.schedule_after (engine t) ~delay (fun () -> pump_queue t)
        else
          match Queue.take_opt t.queue with
          | None -> ()
          | Some (target, poison_target, planned) ->
              apply_poison t ~vp:t.plan.Remediate.origin ~target ~poison_target ~planned
      end

(* A pipeline reached a Poison verdict: announce, attach, or queue —
   unless the breaker already proved the blamed AS unpoisonable. *)
let request_poison t ~vp ~target ~poison_target ~planned =
  Hashtbl.remove t.pipelines target;
  if Hashtbl.mem t.breaker poison_target then begin
    t.breaker_trips <- t.breaker_trips + 1;
    log t (Breaker_open poison_target);
    give_up t ~target
      (Printf.sprintf "circuit breaker open for %s" (Asn.to_string poison_target))
  end
  else
  match t.active with
  | Some ap when Asn.equal ap.ap_target poison_target ->
      (* Same blamed AS: the standing poison already works around it. *)
      Hashtbl.remove t.outage_started target;
      ap.ap_affected <- target :: ap.ap_affected
  | Some _ ->
      log t (Poison_queued { target; poison = poison_target });
      Queue.add (target, poison_target, planned) t.queue
  | None ->
      let delay = announce_delay t in
      if delay <= 0.0 then apply_poison t ~vp ~target ~poison_target ~planned
      else begin
        log t (Poison_queued { target; poison = poison_target });
        Queue.add (target, poison_target, planned) t.queue;
        Sim.Engine.schedule_after (engine t) ~delay (fun () -> pump_queue t)
      end

let pipeline_alive t p =
  match Hashtbl.find_opt t.pipelines p.p_target with Some q -> q == p | None -> false

let run_decision t p diagnosis =
  let vp = p.p_vp and target = p.p_target in
  let graph = Bgp.Network.graph t.env.Dataplane.Probe.net in
  let outage_age () =
    let outage_started =
      match Hashtbl.find_opt t.outage_started target with
      | Some started -> started
      | None -> p.p_started
    in
    now t -. outage_started
  in
  (* Consult the precomputed plan cache (when wired) before paying for a
     fresh decision: a hit is a ready verdict, byte-identical to what the
     decision process would compute. *)
  let consult () =
    match t.hooks.plan_consult with
    | None -> None
    | Some f ->
        f ~target ~diagnosis ~outage_age:(outage_age ())
          ~breaker_open:(fun a -> Hashtbl.mem t.breaker a)
  in
  let decide_fresh () =
    Decide.decide t.config.decide graph ~origin:t.plan.Remediate.origin ~diagnosis
      ~outage_age:(outage_age ())
  in
  (* While the verdict is Wait, keep rechecking: stand down if the outage
     resolves on its own, poison once it has aged past the gate. *)
  let rec act ~planned verdict =
    log t (Decision verdict);
    match verdict with
    | Decide.Poison poison_target -> request_poison t ~vp ~target ~poison_target ~planned
    | Decide.Hopeless reason -> stand_down t ~target reason
    | Decide.Wait _ ->
        p.p_phase <- Waiting;
        p.p_due <- now t +. recheck_interval;
        Sim.Engine.schedule_after (engine t) ~delay:recheck_interval (fun () ->
            if not (pipeline_alive t p) then ()
            else if target_reachable t ~vp ~target then
              stand_down t ~target "outage resolved on its own"
            else decide_and_act ())
  and decide_and_act () =
    if now t -. p.p_started > pipeline_timeout then
      give_up t ~target "pipeline timeout"
    else begin
      match consult () with
      | Some verdict -> act ~planned:true verdict
      | None ->
          (* [decision_latency] models the wall-clock cost of running the
             decision process from scratch; a plan hit above skips it. At
             the default 0 the fresh verdict acts inline, in this event. *)
          if t.config.decision_latency <= 0.0 then act ~planned:false (decide_fresh ())
          else begin
            p.p_phase <- Deciding;
            p.p_due <- now t +. t.config.decision_latency;
            Sim.Engine.schedule_after (engine t) ~delay:t.config.decision_latency (fun () ->
                if pipeline_alive t p then act ~planned:false (decide_fresh ()))
          end
    end
  in
  decide_and_act ()

(* Isolation with bounded retries: a chaos- or budget-denied attempt backs
   off exponentially; exhausting the budget is a terminal give-up, so every
   pipeline ends in a terminal state. *)
let rec attempt_isolation t p =
  if not (pipeline_alive t p) then ()
  else begin
    p.p_attempt <- p.p_attempt + 1;
    p.p_phase <- Isolating;
    p.p_due <- now t;
    let outcome =
      match t.hooks.isolation_attempt with
      | Some f -> f ~target:p.p_target ~attempt:p.p_attempt
      | None -> `Proceed
    in
    match outcome with
    | `Proceed ->
        let diagnosis = Isolation.isolate (isolation_context t) ~src:p.p_vp ~dst:p.p_target in
        log t (Diagnosed diagnosis);
        (* The decision happens once isolation completes; model its latency
           by scheduling the decision after [elapsed]. *)
        p.p_phase <- Deciding;
        p.p_due <- now t +. diagnosis.Isolation.elapsed;
        Sim.Engine.schedule_after (engine t) ~delay:diagnosis.Isolation.elapsed (fun () ->
            if pipeline_alive t p then run_decision t p diagnosis)
    | `Lost | `Denied ->
        if p.p_attempt >= max_isolation_attempts then
          give_up t ~target:p.p_target "isolation retry budget exhausted"
        else begin
          let delay = backoff_delay p.p_attempt in
          log t (Isolation_retry { target = p.p_target; attempt = p.p_attempt; delay });
          p.p_phase <- Backoff;
          p.p_due <- now t +. delay;
          Sim.Engine.schedule_after (engine t) ~delay (fun () -> attempt_isolation t p)
        end
  end

let covered_by_active t target =
  match t.active with
  | Some ap -> List.exists (Asn.equal target) ap.ap_affected
  | None -> false

let queued t target =
  Queue.fold (fun acc (qt, _, _) -> acc || Asn.equal qt target) false t.queue

let notify_outage t ~vp ~target =
  if Hashtbl.mem t.pipelines target || covered_by_active t target || queued t target then ()
  else begin
    log t (Outage_detected { vp; target });
    (* The monitor crossed its threshold after several failed rounds;
       the outage began roughly threshold x interval earlier — unless a
       previous isolation round already pinned the start time. *)
    (match Hashtbl.find_opt t.outage_started target with
    | Some _ -> ()
    | None ->
        Hashtbl.replace t.outage_started target (now t -. detection_lag));
    let p =
      {
        p_vp = vp;
        p_target = target;
        p_started = now t;
        p_attempt = 0;
        p_phase = Isolating;
        p_due = now t;
      }
    in
    Hashtbl.replace t.pipelines target p;
    attempt_isolation t p
  end

let watch t ~targets =
  let origin = t.plan.Remediate.origin in
  Measurement.Atlas.refresh_all t.atlas t.env ~vps:[ origin ] ~dsts:targets ~now:(now t);
  let monitor =
    Measurement.Monitor.create ~env:t.env ~engine:(engine t) ~responsiveness:t.responsiveness
      ~on_outage:(fun outage ->
        match
          Bgp.Network.owner_of_address t.env.Dataplane.Probe.net
            outage.Measurement.Monitor.target
        with
        | Some (_, target_as) -> notify_outage t ~vp:origin ~target:target_as
        | None -> begin
            match
              Topology.As_graph.owner_of_address
                (Bgp.Network.graph t.env.Dataplane.Probe.net)
                outage.Measurement.Monitor.target
            with
            | Some target_as -> notify_outage t ~vp:origin ~target:target_as
            | None -> ()
          end)
      ~src_ip:(origin_source t) ?gate:t.hooks.probe_gate ?loss:t.hooks.monitor_loss ~vp:origin
      ~targets:(List.map (target_address t) targets)
      ()
  in
  t.monitors <- monitor :: t.monitors

(* lint: allow LG-DEAD-EXPORT (seam: the state-machine tests in test_lifeguard.ml) *)
let state t : state =
  match t.active with
  | Some ap -> Poisoned ap.ap_target
  | None -> if Hashtbl.length t.pipelines > 0 then Isolating else Idle

let active_pipelines t = Hashtbl.length t.pipelines
let queued_poisons t = Queue.length t.queue

let awaiting_repair t =
  match t.active with Some ap -> List.length ap.ap_affected | None -> 0

let count_records t f =
  List.fold_left
    (fun n r -> if f r.Recover.Record.action then n + 1 else n)
    0
    (Recover.Journal.records t.journal)

let reannounce_count t =
  count_records t (function Recover.Record.Poison_reannounce _ -> true | _ -> false)

let rollback_count t =
  count_records t (function
    | Recover.Record.Unpoison { repaired = false; _ } -> true
    | _ -> false)

let breaker_trip_count t = t.breaker_trips
(* lint: allow LG-DEAD-EXPORT (seam: test_lifeguard.ml's watchdog tests) *)
let breaker_open t ~target = Hashtbl.mem t.breaker target
let events t = List.rev t.events

let outcomes t =
  List.filter_map
    (fun { Recover.Record.at; action; _ } ->
      match action with Recover.Record.Outcome o -> Some (at, o) | _ -> None)
    (Recover.Journal.records t.journal)

let monitors t = List.rev t.monitors
let collector t = t.collector

(* The state-ownership contract: everything mutable in this module that
   is not reconstructible from the world is rendered here, canonically
   (tables sorted, floats as hex floats), for the snapshot digest. The
   LG-ROB-SNAPSHOT lint rule holds this function to that promise — every
   mutable field of the records above must be referenced below. *)
let capture t =
  let buf = Buffer.create 256 in
  let line fmt =
    Printf.ksprintf (fun l -> Buffer.add_string buf l; Buffer.add_char buf '\n') fmt
  in
  let fl = Recover.Record.float_field and asn = Asn.to_string in
  let b01 x = if x then "1" else "0" in
  let opt_fl = function None -> "-" | Some f -> fl f in
  line "counts %d %d %d" t.breaker_trips (List.length t.events) (List.length t.monitors);
  line "last_announce %s" (fl t.last_announce);
  Hashtbl.fold (fun _ p acc -> p :: acc) t.pipelines []
  |> List.sort (fun p q -> Asn.compare p.p_target q.p_target)
  |> List.iter (fun p ->
         line "pipeline %s %s %s %d %s %s" (asn p.p_vp) (asn p.p_target) (fl p.p_started)
           p.p_attempt (phase_to_string p.p_phase) (fl p.p_due));
  (match t.active with
  | None -> ()
  | Some ap ->
      line "active %s %s %s %d %s %s %s %s %s %s" (asn ap.ap_target) (fl ap.ap_first)
        (b01 ap.ap_planned) ap.ap_announcements (b01 ap.ap_confirmed) (b01 ap.ap_rolling_back)
        (fl ap.ap_next_check) (opt_fl ap.ap_unpoison_due) (opt_fl ap.ap_rollback_due)
        (Recover.Record.escape ap.ap_rollback_reason);
      List.iter (fun a -> line "affected %s" (asn a)) ap.ap_affected);
  Queue.iter
    (fun (target, poison, planned) ->
      line "queue %s %s %s" (asn target) (asn poison) (b01 planned))
    t.queue;
  Hashtbl.fold (fun target started acc -> (target, started) :: acc) t.outage_started []
  |> List.sort (fun (a, _) (b, _) -> Asn.compare a b)
  |> List.iter (fun (a, started) -> line "outage %s %s" (asn a) (fl started));
  Hashtbl.fold (fun target () acc -> target :: acc) t.breaker []
  |> List.sort Asn.compare
  |> List.iter (fun a -> line "breaker %s" (asn a));
  Buffer.contents buf
