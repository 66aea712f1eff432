open Net

type outage = {
  vp : Asn.t;
  target : Ipv4.t;
  started_at : float;
  detected_at : float;
  mutable ended_at : float option;
}

(* What a target last wrote to the responsiveness database. *)
type noted = Unnoted | Noted_failed | Noted_answered

type target_state = {
  address : Ipv4.t;
  mutable noted : noted;
  mutable consecutive_failures : int;
  mutable first_failure_at : float;
  mutable current : outage option;
  mutable measured_at : int;  (** [Probe.stamp] of [delivered]; -1 before the first pair. *)
  mutable delivered : bool;
}

type t = {
  env : Dataplane.Probe.env;
  on_outage : outage -> unit;
  responsiveness : Responsiveness.t option;
  src_ip : Ipv4.t option;
  gate : (now:float -> n:int -> int) option;
  loss : (unit -> bool) option;
  vp : Asn.t;
  targets : target_state array;
  mutable pairs_sent : int;
  mutable pairs_skipped : int;
  mutable quiet_stamp : int;
      (** The stamp the last full round ended on with every target
          settled (see [settled]); -1 when it did not. *)
}

let interval = 30.0
let fail_threshold = 4

let probe_target t state now =
  t.pairs_sent <- t.pairs_sent + 1;
  (* A "pair" of pings: in the simulator both probes of a pair see the
     same network state, so one delivery check decides the pair. While
     the data plane has not moved since the last pair, that check would
     answer as it did: charge its ping and reuse the verdict. *)
  let stamp = Dataplane.Probe.stamp t.env in
  let delivered =
    if stamp = state.measured_at then begin
      Dataplane.Probe.charge t.env 1;
      state.delivered
    end
    else begin
      let delivered =
        match t.src_ip with
        | Some src_ip -> Dataplane.Probe.ping_from t.env ~src:t.vp ~src_ip ~dst:state.address
        | None -> Dataplane.Probe.ping t.env ~src:t.vp ~dst:state.address
      in
      state.measured_at <- stamp;
      state.delivered <- delivered;
      delivered
    end
  in
  (* Chaos hook: a lost pair looks exactly like an unreachable target —
     the failure-counting logic below cannot tell the difference, which
     is the point. *)
  let ok =
    delivered && (match t.loss with Some lost -> not (lost ()) | None -> true)
  in
  (* An entry only moves from absent to false to true, and monitors are
     its only writers: after this target noted an answer, no note can
     change it, and after it noted a failure, another failure cannot.
     Skipping those notes is exact even when monitors share an address. *)
  (match (t.responsiveness, state.noted, ok) with
  | None, _, _ | Some _, Noted_answered, _ | Some _, Noted_failed, false -> ()
  | Some db, (Unnoted | Noted_failed), _ ->
      Responsiveness.note db state.address ok;
      state.noted <- (if ok then Noted_answered else Noted_failed));
  if ok then begin
    (match state.current with Some o -> o.ended_at <- Some now | None -> ());
    state.current <- None;
    state.consecutive_failures <- 0
  end
  else begin
    if state.consecutive_failures = 0 then state.first_failure_at <- now;
    state.consecutive_failures <- state.consecutive_failures + 1;
    if state.consecutive_failures = fail_threshold && Option.is_none state.current then begin
      let o =
        {
          vp = t.vp;
          target = state.address;
          started_at = state.first_failure_at;
          detected_at = now;
          ended_at = None;
        }
      in
      state.current <- Some o;
      t.on_outage o
    end
  end

(* Admit up to [n] pairs at [now]; returns how many were admitted. *)
let admit t ~now ~n = match t.gate with Some gate -> gate ~now ~n | None -> n

(* A target whose next pair at stamp [s] changes nothing. Its last pair
   was sent at [measured_at] and saw [delivered], so with no [loss] hook
   a target measured at [s] and delivered had an ok last pair: no
   streak, no open outage, and an answer noted (when there is a
   database). A pair at [s] repeats that pair exactly. *)
let settled s state = state.measured_at = s && state.delivered

(* Every target in turn: admitted one pair at a time, so an isolation
   that a detection starts mid-round draws on the budget before the
   targets after it. The round is quiet-ready when it leaves every
   target settled at a stamp that still holds. *)
let full_round t now =
  Array.iter
    (fun state ->
      (* Budget gate: a denied round is skipped outright — no probe,
         no state change — so budget pressure slows detection rather
         than fabricating failures. *)
      if admit t ~now ~n:1 = 1 then probe_target t state now
      else t.pairs_skipped <- t.pairs_skipped + 1)
    t.targets;
  t.quiet_stamp <-
    (match (t.loss, t.targets) with
    | None, [||] | Some _, _ -> -1
    | None, _ ->
        let s = t.targets.(0).measured_at in
        if Array.for_all (settled s) t.targets && Dataplane.Probe.stamp_holds t.env s then s
        else -1)

(* A round at the stamp the last full round left every target settled
   at: each admitted pair would reuse its delivered verdict and change
   nothing, and no pair would call [on_outage], so nothing draws on the
   budget between the pairs. Admitting, charging and counting them in
   one step leaves the state the full round would. *)
let quiet_round t now =
  let n = Array.length t.targets in
  let m = admit t ~now ~n in
  t.pairs_sent <- t.pairs_sent + m;
  t.pairs_skipped <- t.pairs_skipped + (n - m);
  Dataplane.Probe.charge t.env m

let create ~env ~engine ?(on_outage = ignore) ?responsiveness ?src_ip ?gate ?loss ~vp
    ~targets () =
  let t =
    {
      env;
      on_outage;
      responsiveness;
      src_ip;
      gate;
      loss;
      vp;
      targets =
        Array.of_list
          (List.map
             (fun address ->
               {
                 address;
                 noted = Unnoted;
                 consecutive_failures = 0;
                 first_failure_at = 0.0;
                 current = None;
                 measured_at = -1;
                 delivered = false;
               })
             targets);
      pairs_sent = 0;
      pairs_skipped = 0;
      quiet_stamp = -1;
    }
  in
  Sim.Engine.schedule_every engine ~every:interval (fun now ->
      (* A traced run takes the full round, so each pair keeps its own
         [meas.probe] event. *)
      if t.quiet_stamp >= 0 && (not (Obs.Trace.on ()))
         && Dataplane.Probe.stamp_holds t.env t.quiet_stamp
      then quiet_round t now
      else full_round t now;
      `Continue);
  t

let probe_count t = t.pairs_sent
let skipped_count t = t.pairs_skipped
