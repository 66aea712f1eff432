open Net
open Topology

(* Probe-issue accounting (Obs): [meas.probes] mirrors the per-env
   [probes_sent] totals the experiments report, and each charge emits a
   "meas.probe" trace event stamped with the env's simulation clock. The memo
   counters give the reachability memo's hit rate, hits / (hits +
   misses), and how often it was invalidated. *)
let m_probes = Obs.Metrics.counter "meas.probes"
let m_memo_hits = Obs.Metrics.counter "dataplane.memo_hits"
let m_memo_misses = Obs.Metrics.counter "dataplane.memo_misses"
let m_memo_flushes = Obs.Metrics.counter "dataplane.memo_flushes"

module Key_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* Fold the high (AS) half onto the low (address) half: the table
     indexes buckets by the low bits. *)
  let hash k =
    let z = k * 0x9E3779B1 in
    (z lxor (z lsr 29)) land max_int
end)

(* Verdicts of [Forward.delivers], keyed by (src AS, dst address). Each
   entry is [stamp lsl 1 lor verdict]; an entry is live only while its
   stamp is the current one, so a flush is one increment. [epoch] and
   [version] are the forwarding epoch and failure-set version the live
   entries were computed under. *)
type memo = {
  verdicts : int Key_tbl.t;
  mutable stamp : int;
  mutable epoch : int;
  mutable version : int;
}

type env = {
  net : Bgp.Network.t;
  failures : Failure.set;
  engine : Sim.Engine.t;
  mutable probes_sent : int;
  memo : memo;
}

let env ?engine net failures =
  {
    net;
    failures;
    engine = Option.value engine ~default:(Bgp.Network.engine net);
    probes_sent = 0;
    memo = { verdicts = Key_tbl.create 64; stamp = 0; epoch = -1; version = -1 };
  }

let reset_probe_count t = t.probes_sent <- 0

let charge t n =
  t.probes_sent <- t.probes_sent + n;
  Obs.Metrics.add m_probes n;
  if Obs.Trace.on () then
    Obs.Trace.event
      ~ts:(Sim.Engine.now t.engine)
      ~span:"meas.probe"
      [ ("n", Obs.Trace.Int n) ]

(* The AS that would answer probes to this address: the owner of the
   router address, or the AS originating the covering prefix. *)
let responder t ip =
  match As_graph.owner_of_address (Bgp.Network.graph t.net) ip with
  | Some asn -> Some asn
  | None ->
      (* Addresses inside production/sentinel prefixes rather than router
         space: the originating AS answers. *)
      Option.map snd (Bgp.Network.owner_of_address t.net ip)

(* Keys pack the AS above the 32 address bits; larger ASNs (none of the
   generated topologies has one) bypass the memo. *)
let max_memo_asn = 1 lsl 30

let walk_and_store m t ~src ~dst key =
  Obs.Metrics.incr m_memo_misses;
  let verdict = Forward.delivers t.net t.failures ~src ~dst in
  Key_tbl.replace m.verdicts key ((m.stamp lsl 1) lor Bool.to_int verdict);
  verdict

(* Flush the memo if the world's forwarding epoch or the failure set's
   version has moved since the live verdicts were computed: while neither
   has, every input of a walk is unchanged. *)
let sync t =
  let m = t.memo in
  let epoch = Bgp.Network.fib_epoch t.net and version = Failure.version t.failures in
  if epoch <> m.epoch || version <> m.version then begin
    m.epoch <- epoch;
    m.version <- version;
    m.stamp <- m.stamp + 1;
    Obs.Metrics.incr m_memo_flushes
  end;
  m

let stamp t = (sync t).stamp

(* [stamp t = s] without [sync]'s write: a stamp [stamp] returned earlier
   is still current exactly when neither input moved since the last
   sync and no sync has moved the stamp past it. *)
let stamp_holds t s =
  let m = t.memo in
  m.stamp = s
  && Bgp.Network.fib_epoch t.net = m.epoch
  && Failure.version t.failures = m.version

let delivers t ~src ~dst =
  let m = sync t in
  let a = Asn.to_int src in
  if a >= max_memo_asn then Forward.delivers t.net t.failures ~src ~dst
  else begin
    let key = (a lsl 32) lor Ipv4.to_int dst in
    match Key_tbl.find m.verdicts key with
    | entry when entry lsr 1 = m.stamp ->
        Obs.Metrics.incr m_memo_hits;
        entry land 1 = 1
    | _ -> walk_and_store m t ~src ~dst key
    | exception Not_found -> walk_and_store m t ~src ~dst key
  end

(* A request that reaches [dst] is answered by its responder, whose reply
   must then reach [reply_to]. *)
let answered t ~src ~reply_to ~dst =
  delivers t ~src ~dst
  &&
  match responder t dst with
  | Some responder_as -> delivers t ~src:responder_as ~dst:reply_to
  | None -> false

let ping_from t ~src ~src_ip ~dst =
  charge t 1;
  answered t ~src ~reply_to:src_ip ~dst

let ping t ~src ~dst = ping_from t ~src ~src_ip:(Forward.probe_address t.net src) ~dst

let spoofed_ping t ~sender ~spoof_src ~dst =
  charge t 1;
  answered t ~src:sender ~reply_to:spoof_src ~dst

type trace_hop = { hop : Forward.hop; responded : bool }

type trace = {
  hops : trace_hop list;
  reached : bool;
  outcome : Forward.outcome;
}

let last_responsive_as trace =
  List.fold_left
    (fun acc th -> if th.responded then Some th.hop.Forward.asn else acc)
    None trace.hops

let visible_path trace =
  let rec take acc = function
    | [] -> List.rev acc
    | th :: rest -> if th.responded then take (th.hop.Forward.asn :: acc) rest else take acc rest
  in
  (* Hops whose replies were lost appear as '*' in real traceroute output;
     the visible AS path is the responsive subsequence. *)
  take [] trace.hops

let trace_with_replies t ~src ~reply_to ~dst =
  let walk = Forward.walk t.net t.failures ~src ~dst in
  charge t (List.length walk.Forward.hops);
  (* The hop a failure consumed the packet at never saw it with a live
     TTL, so it cannot answer. *)
  let dropped_at =
    match walk.Forward.outcome with
    | Forward.Dropped { at; _ } -> Some at
    | Forward.Delivered | Forward.No_route _ | Forward.Loop -> None
  in
  let hops =
    List.map
      (fun (h : Forward.hop) ->
        let responded =
          (* The source hop trivially "responds"; other hops' TTL-expired
             replies must route back to the measuring address. *)
          (match dropped_at with
          | Some at when Asn.equal at h.Forward.asn -> false
          | Some _ | None ->
              Asn.equal h.Forward.asn src
              || delivers t ~src:h.Forward.asn ~dst:reply_to)
        in
        { hop = h; responded })
      walk.Forward.hops
  in
  let reached =
    match walk.Forward.outcome with
    | Forward.Delivered -> begin
        match responder t dst with
        | Some responder_as -> delivers t ~src:responder_as ~dst:reply_to
        | None -> false
      end
    | Forward.No_route _ | Forward.Loop | Forward.Dropped _ -> false
  in
  { hops; reached; outcome = walk.Forward.outcome }

let traceroute t ~src ~dst =
  trace_with_replies t ~src ~reply_to:(Forward.probe_address t.net src) ~dst

let spoofed_traceroute t ~sender ~spoof_src ~dst =
  trace_with_replies t ~src:sender ~reply_to:spoof_src ~dst

let reverse_traceroute t ~vantage_points ~from_ ~to_ip =
  let target_address = Forward.probe_address t.net from_ in
  let some_vp_reaches =
    List.exists
      (fun vp -> delivers t ~src:vp ~dst:target_address)
      vantage_points
  in
  if not some_vp_reaches then None
  else begin
    (* Amortized cost from the paper's atlas accounting: ~10 IP-option
       probes plus ~2 supporting traceroutes of ~8 hops. *)
    charge t (10 + 16);
    let walk = Forward.walk t.net t.failures ~src:from_ ~dst:to_ip in
    let hops = List.map (fun h -> { hop = h; responded = true }) walk.Forward.hops in
    let reached =
      match walk.Forward.outcome with
      | Forward.Delivered -> true
      | Forward.No_route _ | Forward.Loop | Forward.Dropped _ -> false
    in
    Some { hops; reached; outcome = walk.Forward.outcome }
  end
