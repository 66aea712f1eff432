open Net

type classification = Partial | Complete

type incident = {
  target : Asn.t;
  started_at : float;
  detected_at : float;
  mutable ended_at : float option;
  mutable classification : classification;
  mutable reachable_vps : int;
  mutable total_vps : int;
}

let is_poisonable i = i.classification = Partial

type target_state = {
  asn : Asn.t;
  address : Ipv4.t;
  mutable consecutive_failures : int;
  mutable first_failure_at : float;
  mutable open_incident : incident option;
  mutable measured_at : int;  (** [Probe.stamp] of [reachable]; -1 before the first round. *)
  mutable reachable : bool;
}

type t = {
  env : Dataplane.Probe.env;
  central : Asn.t;
  vantage_points : Asn.t list;
  states : target_state list;
  mutable history : incident list;  (** newest first *)
  mutable probes : int;
}

(* Distributed classification: which vantage points still reach the
   target? *)
let classify t state now =
  let reachable =
    List.length
      (List.filter
         (fun vp ->
           t.probes <- t.probes + 1;
           Dataplane.Probe.ping t.env ~src:vp ~dst:state.address)
         t.vantage_points)
  in
  let classification = if reachable > 0 then Partial else Complete in
  match state.open_incident with
  | Some incident ->
      incident.classification <- classification;
      incident.reachable_vps <- reachable;
      incident.total_vps <- List.length t.vantage_points
  | None ->
      let incident =
        {
          target = state.asn;
          started_at = state.first_failure_at;
          detected_at = now;
          ended_at = None;
          classification;
          reachable_vps = reachable;
          total_vps = List.length t.vantage_points;
        }
      in
      state.open_incident <- Some incident;
      t.history <- incident :: t.history

let tick t now =
  List.iter
    (fun state ->
      t.probes <- t.probes + 1;
      (* The central ping answers as it did while the data plane has not
         moved since the last round: charge it and reuse the verdict. *)
      let stamp = Dataplane.Probe.stamp t.env in
      let ok =
        if stamp = state.measured_at then begin
          Dataplane.Probe.charge t.env 1;
          state.reachable
        end
        else begin
          let ok = Dataplane.Probe.ping t.env ~src:t.central ~dst:state.address in
          state.measured_at <- stamp;
          state.reachable <- ok;
          ok
        end
      in
      if ok then begin
        (match state.open_incident with
        | Some incident -> incident.ended_at <- Some now
        | None -> ());
        state.open_incident <- None;
        state.consecutive_failures <- 0
      end
      else begin
        if state.consecutive_failures = 0 then state.first_failure_at <- now;
        state.consecutive_failures <- state.consecutive_failures + 1
      end)
    t.states;
  (* Trigger classification after the threshold; re-classify open
     incidents each round so a complete outage that becomes partial is
     upgraded (Hubble re-probes continuously). *)
  t

(* Consecutive failed rounds that trigger classification. *)
let fail_threshold = 3

let create ~env ~engine ~central ~vantage_points ~targets () =
  let states =
    List.map
      (fun asn ->
        {
          asn;
          address = Dataplane.Forward.probe_address env.Dataplane.Probe.net asn;
          consecutive_failures = 0;
          first_failure_at = 0.0;
          open_incident = None;
          measured_at = -1;
          reachable = false;
        })
      targets
  in
  let t =
    { env; central; vantage_points; states; history = []; probes = 0 }
  in
  Sim.Engine.schedule_every engine ~every:120.0 (* Hubble's rate *) (fun now ->
      ignore (tick t now);
      List.iter
        (fun state ->
          if state.consecutive_failures >= fail_threshold then classify t state now)
        t.states;
      `Continue);
  t

let incidents t = List.rev t.history

let h_of_d t ~observed_days ~d_minutes =
  if observed_days <= 0.0 then invalid_arg "Hubble.h_of_d: need a positive window";
  let threshold = d_minutes *. 60.0 in
  let qualifying =
    List.filter
      (fun i ->
        is_poisonable i
        &&
        match i.ended_at with
        | Some ended -> ended -. i.started_at >= threshold
        | None -> false)
      t.history
  in
  float_of_int (List.length qualifying) /. observed_days

let probe_count t = t.probes
