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
  gate : (now:float -> cost:int -> bool) option;
  loss : (unit -> bool) option;
  vp : Asn.t;
  targets : target_state list;
  mutable pairs_sent : int;
  mutable pairs_skipped : int;
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
        List.map
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
          targets;
      pairs_sent = 0;
      pairs_skipped = 0;
    }
  in
  Sim.Engine.schedule_every engine ~every:interval (fun now ->
      List.iter
        (fun state ->
          (* Budget gate: a denied round is skipped outright — no probe,
             no state change — so budget pressure slows detection rather
             than fabricating failures. *)
          let granted =
            match t.gate with Some admit -> admit ~now ~cost:1 | None -> true
          in
          if granted then probe_target t state now
          else t.pairs_skipped <- t.pairs_skipped + 1)
        t.targets;
      `Continue);
  t

let probe_count t = t.pairs_sent
let skipped_count t = t.pairs_skipped
