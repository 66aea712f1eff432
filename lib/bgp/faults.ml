open Net
open Topology

type config = {
  session_flap_mtbf : float;
  session_flap_downtime : float;
  link_mtbf : float;
  link_mttr : float;
  router_mtbf : float;
  router_mttr : float;
  update_loss : float;
  update_dup : float;
}

let none =
  {
    session_flap_mtbf = 0.0;
    session_flap_downtime = 30.0;
    link_mtbf = 0.0;
    link_mttr = 600.0;
    router_mtbf = 0.0;
    router_mttr = 300.0;
    update_loss = 0.0;
    update_dup = 0.0;
  }

let validate c =
  if c.session_flap_mtbf < 0.0 then invalid_arg "Faults: negative session_flap_mtbf";
  if c.session_flap_mtbf > 0.0 && c.session_flap_downtime <= 0.0 then
    invalid_arg "Faults: session_flap_downtime must be positive when flaps are on";
  if c.link_mtbf < 0.0 then invalid_arg "Faults: negative link_mtbf";
  if c.link_mtbf > 0.0 && c.link_mttr <= 0.0 then
    invalid_arg "Faults: link_mttr must be positive when link failures are on";
  if c.router_mtbf < 0.0 then invalid_arg "Faults: negative router_mtbf";
  if c.router_mtbf > 0.0 && c.router_mttr <= 0.0 then
    invalid_arg "Faults: router_mttr must be positive when router crashes are on";
  if c.update_loss < 0.0 || c.update_loss > 1.0 then
    invalid_arg "Faults: update_loss must be in [0,1]";
  if c.update_dup < 0.0 || c.update_dup > 1.0 then
    invalid_arg "Faults: update_dup must be in [0,1]";
  if c.update_loss +. c.update_dup > 1.0 then
    invalid_arg "Faults: update_loss + update_dup must be <= 1";
  c

(* Intensity scaling for the fault study: rates scale linearly (MTBFs
   divide), repair times and the wire-fault probabilities stay put except
   that probabilities scale linearly too, clamped to keep the config
   valid. [scale c 0.] is fault-free. *)
let scale c factor =
  if factor < 0.0 then invalid_arg "Faults.scale: negative factor";
  if factor = 0.0 then { none with session_flap_downtime = c.session_flap_downtime }
  else begin
    let rate mtbf = if mtbf <= 0.0 then 0.0 else mtbf /. factor in
    let prob p = Float.min 1.0 (p *. factor) in
    let loss = prob c.update_loss in
    let dup = Float.min (prob c.update_dup) (1.0 -. loss) in
    {
      c with
      session_flap_mtbf = rate c.session_flap_mtbf;
      link_mtbf = rate c.link_mtbf;
      router_mtbf = rate c.router_mtbf;
      update_loss = loss;
      update_dup = dup;
    }
  end

type t = {
  config : config;
  rng : Prng.t;
  net : Network.t;
  engine : Sim.Engine.t;
  down_links : (int, unit) Hashtbl.t;
      (** Links this injector currently holds down, keyed by the ordered
          ASN pair packed into one int (so the table stays int-keyed).
          Guards flap/failure processes sharing a link. *)
  down_routers : (Asn.t, unit) Hashtbl.t;
  mutable session_flaps : int;
  mutable link_failures : int;
  mutable router_crashes : int;
  mutable updates_dropped : int;
  mutable updates_duplicated : int;
}

let create ?(config = none) ~rng ~net () =
  let config = validate config in
  {
    config;
    rng;
    net;
    engine = Network.engine net;
    down_links = Hashtbl.create 16;
    down_routers = Hashtbl.create 8;
    session_flaps = 0;
    link_failures = 0;
    router_crashes = 0;
    updates_dropped = 0;
    updates_duplicated = 0;
  }

let link_key a b =
  let ia = Asn.to_int a and ib = Asn.to_int b in
  if ia <= ib then (ia lsl 31) lor ib else (ib lsl 31) lor ia

let router_down t asn = Hashtbl.mem t.down_routers asn

(* One renewal process per link and fault class: exponential uptimes
   (mean [mtbf]) and downtimes (mean [mttr]). A draw that lands on a link
   already down — the other class got there first, or an endpoint router
   is crashed — is skipped and the process renews. The restore leg backs
   off when an endpoint router crashed mid-downtime: the router's own
   restart re-establishes the sessions. *)
let rec schedule_link_fault t ~mtbf ~mttr ~count ~a ~b ~until =
  let at = Sim.Engine.now t.engine +. Prng.Dist.exponential t.rng ~mean:mtbf in
  if at < until then
    Sim.Engine.schedule t.engine ~at (fun () ->
        let key = link_key a b in
        if Hashtbl.mem t.down_links key || router_down t a || router_down t b then
          schedule_link_fault t ~mtbf ~mttr ~count ~a ~b ~until
        else begin
          Hashtbl.replace t.down_links key ();
          count ();
          Network.fail_link t.net ~a ~b;
          let downtime = Prng.Dist.exponential t.rng ~mean:mttr in
          Sim.Engine.schedule_after t.engine ~delay:downtime (fun () ->
              if Hashtbl.mem t.down_links key then begin
                Hashtbl.remove t.down_links key;
                if not (router_down t a || router_down t b) then
                  Network.restore_link t.net ~a ~b
              end;
              schedule_link_fault t ~mtbf ~mttr ~count ~a ~b ~until)
        end)

(* Router crash/restart renewal: the crash drops every session and loses
   the loc-RIB; the restart re-establishes sessions toward up routers
   only (links held down by a link fault are handed back to this router,
   and links toward still-crashed neighbors stay down until that
   neighbor's own restart) and re-originates from administrative
   intent. *)
let rec schedule_router_fault t ~asn ~until =
  let at = Sim.Engine.now t.engine +. Prng.Dist.exponential t.rng ~mean:t.config.router_mtbf in
  if at < until then
    Sim.Engine.schedule t.engine ~at (fun () ->
        if router_down t asn then schedule_router_fault t ~asn ~until
        else begin
          Hashtbl.replace t.down_routers asn ();
          t.router_crashes <- t.router_crashes + 1;
          Network.crash_node t.net asn;
          let downtime = Prng.Dist.exponential t.rng ~mean:t.config.router_mttr in
          Sim.Engine.schedule_after t.engine ~delay:downtime (fun () ->
              Hashtbl.remove t.down_routers asn;
              List.iter
                (fun (n, _) ->
                  Hashtbl.remove t.down_links (link_key asn n);
                  if not (router_down t n) then Network.restore_link t.net ~a:asn ~b:n)
                (As_graph.neighbors (Network.graph t.net) asn);
              Network.reoriginate t.net asn;
              schedule_router_fault t ~asn ~until)
        end)

let sorted_links graph =
  List.concat_map
    (fun a ->
      List.filter_map
        (fun (b, _) -> if Asn.to_int a < Asn.to_int b then Some (a, b) else None)
        (As_graph.neighbors graph a))
    (As_graph.as_list graph)
  |> List.sort (fun (a1, b1) (a2, b2) ->
         match Asn.compare a1 a2 with 0 -> Asn.compare b1 b2 | c -> c)

let start t ?(protect = []) ~until () =
  let graph = Network.graph t.net in
  (* Built only for a link process: a world with neither pays nothing. *)
  if t.config.session_flap_mtbf > 0.0 || t.config.link_mtbf > 0.0 then begin
    let links = sorted_links graph in
    if t.config.session_flap_mtbf > 0.0 then
      List.iter
        (fun (a, b) ->
          schedule_link_fault t ~mtbf:t.config.session_flap_mtbf
            ~mttr:t.config.session_flap_downtime
            ~count:(fun () -> t.session_flaps <- t.session_flaps + 1)
            ~a ~b ~until)
        links;
    if t.config.link_mtbf > 0.0 then
      List.iter
        (fun (a, b) ->
          schedule_link_fault t ~mtbf:t.config.link_mtbf ~mttr:t.config.link_mttr
            ~count:(fun () -> t.link_failures <- t.link_failures + 1)
            ~a ~b ~until)
        links
  end;
  if t.config.router_mtbf > 0.0 then begin
    let routers =
      List.filter
        (fun a -> not (List.exists (Asn.equal a) protect))
        (List.sort Asn.compare (As_graph.as_list graph))
    in
    List.iter (fun asn -> schedule_router_fault t ~asn ~until) routers
  end;
  if t.config.update_loss > 0.0 || t.config.update_dup > 0.0 then
    Network.set_link_faults t.net
      (Some
         (fun ~from:_ ~to_:_ ->
           let u = Prng.float t.rng in
           if u < t.config.update_loss then begin
             t.updates_dropped <- t.updates_dropped + 1;
             `Drop
           end
           else if u < t.config.update_loss +. t.config.update_dup then begin
             t.updates_duplicated <- t.updates_duplicated + 1;
             `Duplicate
           end
           else `Deliver))

let session_flap_count t = t.session_flaps
let link_failure_count t = t.link_failures
let router_crash_count t = t.router_crashes

let updates_dropped t = t.updates_dropped
let updates_duplicated t = t.updates_duplicated
