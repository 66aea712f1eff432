open Net

type outage = {
  vp : Asn.t;
  target : Ipv4.t;
  started_at : float;
  detected_at : float;
  mutable ended_at : float option;
}

type target_state = {
  address : Ipv4.t;
  mutable consecutive_failures : int;
  mutable first_failure_at : float;
  mutable current : outage option;
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
     same network state, so one delivery check decides the pair. *)
  let delivered =
    match t.src_ip with
    | Some src_ip -> Dataplane.Probe.ping_from t.env ~src:t.vp ~src_ip ~dst:state.address
    | None -> Dataplane.Probe.ping t.env ~src:t.vp ~dst:state.address
  in
  (* Chaos hook: a lost pair looks exactly like an unreachable target —
     the failure-counting logic below cannot tell the difference, which
     is the point. *)
  let ok =
    delivered && (match t.loss with Some lost -> not (lost ()) | None -> true)
  in
  (match t.responsiveness with
  | Some db -> Responsiveness.note db state.address ok
  | None -> ());
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
            { address; consecutive_failures = 0; first_failure_at = 0.0; current = None })
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
