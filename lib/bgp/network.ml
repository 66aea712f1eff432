open Net
open Topology

(* Wire-level accounting (Obs): per-category update counters feed the
   --metrics summary, and each delivery / MRAI batch flush emits a trace
   event. Counters shard per domain, so concurrent trial networks never
   contend; the trace's "bgp.deliver" line count equals [m_delivered]
   (and {!message_count} summed over networks) by construction. *)
let m_delivered = Obs.Metrics.counter "bgp.delivered"
let m_announce_sent = Obs.Metrics.counter "bgp.updates.announce"
let m_withdraw_sent = Obs.Metrics.counter "bgp.updates.withdraw"
let m_mrai_rounds = Obs.Metrics.counter "bgp.mrai_rounds"

type update_record = {
  time : float;
  speaker : Asn.t;
  prefix : Prefix.t;
  route : Route.entry option;
}

(* Per-shard collector slice: a speaker's loc-RIB-change callback writes
   only into its own shard's slice, so recording needs no cross-domain
   state. Legacy (unsharded) networks have exactly one slice, making the
   legacy path byte-identical to the pre-shard collector. *)
type collector_shard = {
  mutable crecords : update_record list;
      (** newest first; empty until a reader starts the log *)
  mutable clogging : bool;  (** the log was started ({!Collector.clear}) *)
  mutable ccount : int;  (** records seen since attach, logged or not *)
}

(* A cross-window BGP update: emitted into its source shard's outbox
   during a barrier window, exchanged at the barrier, and injected into
   the destination shard's engine in canonical order. *)
type boundary_msg = {
  b_arrival : float;
  b_from : Asn.t;
  b_session : Speaker.session;  (** the sender's session: [b_from] to its [asn] *)
  b_src_shard : int;
  b_dst_shard : int;
  b_action : Speaker.action;
}

(* The per-shard slice of the world: its own event queue, prefix ids
   and delivery accounting. A shard's state is touched only by its own
   window execution and by the control plane while every shard is
   quiescent. Legacy networks are a single shard whose engine IS the
   control engine. *)
type shard_state = {
  six : int;
  sengine : Sim.Engine.t;
  sstore : Path_store.t;
  mutable emitter : Speaker.emitter;
      (** {!emit} from this shard, built once at {!create}: the one
          emitter every speaker of the shard is handed, so a delivery
          builds no closure. *)
  mutable s_bgp_events : int;  (** BGP events queued in this shard's engine *)
  mutable s_delivered : int;
  mutable outbox : boundary_msg list;  (** reversed emission order *)
  mutable outbox_n : int;
}

type t = {
  engine : Sim.Engine.t;  (** the control engine *)
  graph : As_graph.t;
  speakers : Speaker.t Asn.Table.t;
      (** Control-plane access by ASN; updates travel by session instead. *)
  mrai : float;
  mutable originations : (Asn.t -> As_path.t option) Prefix.Map.t;
      (** Administrative intent: the latest per-neighbor path function
          each originated prefix was announced with. Survives a router
          crash (the config outlives the loc-RIB) so {!reoriginate} can
          re-originate from it. *)
  owners : Asn.t Prefix_trie.t;
      (** Each originated prefix's origin: the address-ownership map
          ({!owner_of_address} is its longest match). *)
  mutable link_faults : (from:Asn.t -> to_:Asn.t -> [ `Deliver | `Drop | `Duplicate ]) option;
  feeds : collector_shard list ref Asn.Table.t;
      (** AS -> the collector slices subscribed to its loc-RIB changes,
          one per collector it peers with ({!Collector.attach}); the
          speaker's change hook writes to these only. *)
  shards : shard_state array;
  shard_ix : int Asn.Table.t;  (** AS -> shard index; empty in legacy mode *)
  mutable barrier : boundary_msg Shard.Barrier.t option;  (** None = legacy *)
  fib_epoch : int ref;  (** Handed to every speaker, which bumps it on each FIB install. *)
  changes : int ref;
      (** The loc-RIB change counter, handed to every speaker like
          [fib_epoch]: what a collector marks at attach and clear. *)
}

(* Deterministic per-pair pseudo-random factor in [0,1): mix the ASN pair
   so runs are reproducible without threading a PRNG through the hot
   path. The mix is explicit arithmetic rather than the polymorphic
   [Hashtbl.hash] so delays cannot drift with the runtime's generic
   hash. *)
let[@inline] pair_hash a b =
  let z = (Asn.to_int a * 0x9E3779B1) lxor (Asn.to_int b * 0x85EBCA6B) in
  let z = z lxor (z lsr 16) in
  float_of_int (z land 0xFFFF) /. 65536.0

let default_delay a b = 0.05 +. (0.2 *. pair_hash a b)

(* Each session's MRAI, jittered per pair; recomputed on use rather
   than stored, and inlined so that the float is never boxed. *)
let[@inline] jittered_mrai t a b = t.mrai *. (0.75 +. (0.25 *. pair_hash a b))

let engine t = t.engine
let graph t = t.graph

let speaker t asn =
  match Asn.Table.find t.speakers asn with
  | sp -> sp
  | exception Not_found -> invalid_arg (Printf.sprintf "Network: unknown %s" (Asn.to_string asn))

let path_store t = t.shards.(0).sstore

let shard_ix t asn =
  if Array.length t.shards = 1 then 0
  else begin
    match Asn.Table.find_opt t.shard_ix asn with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Network: unknown %s" (Asn.to_string asn))
  end

let shard_for t asn = t.shards.(shard_ix t asn)

let barrier_count t =
  match t.barrier with Some b -> Shard.Barrier.barriers b | None -> 0

let barrier_history t =
  match t.barrier with Some b -> Shard.Barrier.history b | None -> []

let cut_message_count t =
  match t.barrier with Some b -> Shard.Barrier.cut_messages b | None -> 0

(* Catch every shard up to the control clock. Called before control-plane
   reads and writes; a no-op in legacy mode and whenever the frontier is
   already current. *)
let sync t =
  match t.barrier with
  | None -> ()
  | Some b -> Shard.Barrier.sync_all b ~now:(Sim.Engine.now t.engine)

let poke t = match t.barrier with None -> () | Some b -> Shard.Barrier.poke b

let action_prefix = function
  | Speaker.Announce ann -> ann.Route.prefix
  | Speaker.Withdraw p -> p

(* The first position in the batch whose prefix is not below [prefix]. *)
let rec batch_position pending prefix lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) lsr 1 in
    if Prefix.compare (action_prefix pending.(mid)) prefix < 0 then
      batch_position pending prefix (mid + 1) hi
    else batch_position pending prefix lo mid
  end

(* Coalesce [action] into the session's MRAI batch, kept sorted by
   Prefix.compare with one action per prefix, so the flush emits in an
   order fixed by the prefixes themselves: a pending prefix is
   overwritten in place and a new one is inserted at its sorted position.
   The array doubles when full; nothing else is allocated. [pending] is
   [[||]] between rounds (an idle session holds no batch storage), and
   [pending_n] is positive exactly while the MRAI timer is armed. *)
let coalesce (s : Speaker.session) prefix action =
  let n = s.pending_n in
  let i = batch_position s.pending prefix 0 n in
  if i < n && Prefix.equal (action_prefix s.pending.(i)) prefix then s.pending.(i) <- action
  else begin
    if n = Array.length s.pending then begin
      let grown = Array.make (max 4 (2 * n)) action in
      Array.blit s.pending 0 grown 0 n;
      s.pending <- grown
    end;
    Array.blit s.pending i s.pending (i + 1) (n - i);
    s.pending.(i) <- action;
    s.pending_n <- n + 1
  end

let count_sent = function
  | Speaker.Announce _ -> Obs.Metrics.incr m_announce_sent
  | Speaker.Withdraw _ -> Obs.Metrics.incr m_withdraw_sent

(* Delivery and emission. An update travels as the sender's session
   [s]: the receiver is [s.peer] and the update arrives on its session
   [s.back], so a delivery looks nothing up. [sh] is always the shard
   owning the acting speaker: the receiver's for [deliver], whose
   updates go out through that shard's emitter (which is [emit]), and
   the sender's [sp] for [emit] and after. *)
let deliver sh (s : Speaker.session) action =
  sh.s_delivered <- sh.s_delivered + 1;
  let now = Sim.Engine.now sh.sengine in
  Obs.Metrics.incr m_delivered;
  let receiver = s.peer in
  if Obs.Trace.on () then begin
    let kind, prefix =
      match action with
      | Speaker.Announce ann -> ("announce", ann.Route.prefix)
      | Speaker.Withdraw p -> ("withdraw", p)
    in
    Obs.Trace.event ~ts:now ~span:"bgp.deliver"
      [
        ("from", Obs.Trace.Int (Asn.to_int (Speaker.sessions receiver).(s.back).asn));
        ("to", Obs.Trace.Int (Asn.to_int s.asn));
        ("prefix", Obs.Trace.Str (Prefix.to_string prefix));
        ("kind", Obs.Trace.Str kind);
      ]
  end;
  Speaker.receive receiver ~emit:sh.emitter ~now ~session:s.back action

let rec emit t sh sp (s : Speaker.session) action =
  let now = Sim.Engine.now sh.sengine in
  let last_sent = Speaker.last_sent sp in
  let last = last_sent.(s.ix) and mrai = jittered_mrai t (Speaker.asn sp) s.asn in
  if now -. last >= mrai && s.pending_n = 0 then begin
    last_sent.(s.ix) <- now;
    send_now t sh sp s action
  end
  else begin
    let armed = s.pending_n > 0 in
    coalesce s (action_prefix action) action;
    if not armed then begin
      let fire_at = Float.max now (last +. mrai) in
      sh.s_bgp_events <- sh.s_bgp_events + 1;
      Sim.Engine.schedule sh.sengine ~at:fire_at (fun () -> flush t sh sp s)
    end
  end

(* The MRAI timer of session [s] fires: send the coalesced batch. *)
and flush t sh sp s =
  sh.s_bgp_events <- sh.s_bgp_events - 1;
  (Speaker.last_sent sp).(s.ix) <- Sim.Engine.now sh.sengine;
  let batch = s.pending and n = s.pending_n in
  s.pending <- [||];
  s.pending_n <- 0;
  Obs.Metrics.incr m_mrai_rounds;
  if Obs.Trace.on () then
    Obs.Trace.event ~ts:(Sim.Engine.now sh.sengine) ~span:"bgp.mrai"
      [
        ("from", Obs.Trace.Int (Asn.to_int (Speaker.asn sp)));
        ("to", Obs.Trace.Int (Asn.to_int s.asn));
        ("batch", Obs.Trace.Int n);
      ];
  send t sh sp s batch n

(* Put [batch.(0 .. n - 1)] (a detached array, in prefix order) on the
   wire of session [s]. Fault injection samples once per message, in
   batch order, after the MRAI batching decided what goes out: a dropped
   update is silently lost (the far side keeps whatever it had), a
   duplicated one arrives twice with the copy trailing by half a
   propagation delay. The survivors are compacted in place, so only
   duplicates allocate.

   Unsharded, the survivors are one engine event, which delivers them in
   batch order, and the copies a second one at 1.5 times the delay.
   Scheduling one event per message would give the same order: the
   messages share one delay, take consecutive sequence numbers at one
   instant so no other event falls between them, and whatever a delivery
   schedules comes after all of them either way. *)
and send t sh sp (s : Speaker.session) batch n =
  let from = Speaker.asn sp and to_ = s.asn in
  let delay = default_delay from to_ in
  let kept = ref 0 and dups = ref [] in
  for i = 0 to n - 1 do
    let action = batch.(i) in
    count_sent action;
    let verdict =
      match t.link_faults with None -> `Deliver | Some verdict -> verdict ~from ~to_
    in
    match verdict with
    | `Deliver ->
        batch.(!kept) <- action;
        incr kept
    | `Drop -> ()
    | `Duplicate ->
        batch.(!kept) <- action;
        incr kept;
        dups := action :: !dups
  done;
  let kept = !kept and copies = Array.of_list (List.rev !dups) in
  match t.barrier with
  | None ->
      if kept > 0 then schedule_batch sh s batch kept ~delay;
      if Array.length copies > 0 then
        schedule_batch sh s copies (Array.length copies) ~delay:(delay *. 1.5)
  | Some _ ->
      for i = 0 to kept - 1 do
        wire t sh sp s batch.(i) ~delay
      done;
      Array.iter (fun action -> wire t sh sp s action ~delay:(delay *. 1.5)) copies

and schedule_batch sh s batch n ~delay =
  sh.s_bgp_events <- sh.s_bgp_events + n;
  Sim.Engine.schedule_after sh.sengine ~delay (fun () ->
      for i = 0 to n - 1 do
        sh.s_bgp_events <- sh.s_bgp_events - 1;
        deliver sh s batch.(i)
      done)

(* One update sent as soon as it is emitted: {!send} for a batch of one,
   without allocating the batch. *)
and send_now t sh sp (s : Speaker.session) action =
  let from = Speaker.asn sp and to_ = s.asn in
  let delay = default_delay from to_ in
  count_sent action;
  match t.link_faults with
  | None -> wire t sh sp s action ~delay
  | Some verdict -> (
      match verdict ~from ~to_ with
      | `Deliver -> wire t sh sp s action ~delay
      | `Drop -> ()
      | `Duplicate ->
          wire t sh sp s action ~delay;
          wire t sh sp s action ~delay:(delay *. 1.5))

(* One message on the wire. Sharded, every delivery — intra-shard
   included — goes through the barrier outbox, so arrival order at each
   speaker is the canonical (time, src, dst, prefix) order whatever the
   partitioning. Engine sequence numbers differ across shard counts; the
   outbox ordering is what makes results byte-identical for every K. *)
and wire t sh sp s action ~delay =
  match t.barrier with
  | None ->
      sh.s_bgp_events <- sh.s_bgp_events + 1;
      Sim.Engine.schedule_after sh.sengine ~delay (fun () ->
          sh.s_bgp_events <- sh.s_bgp_events - 1;
          deliver sh s action)
  | Some _ ->
      sh.outbox <-
        {
          b_arrival = Sim.Engine.now sh.sengine +. delay;
          b_from = Speaker.asn sp;
          b_session = s;
          b_src_shard = sh.six;
          b_dst_shard = shard_ix t s.asn;
          b_action = action;
        }
        :: sh.outbox;
      sh.outbox_n <- sh.outbox_n + 1

(* Barrier injection: put one due message on its destination shard's
   queue, for the same [deliver]. Runs on the control domain while
   shards are quiescent. An announcement crosses shards as it is: it is
   immutable and holds no prefix id, so the receiving shard may keep the
   sender's value. *)
let inject_boundary t msg =
  let sh = t.shards.(msg.b_dst_shard) in
  sh.s_bgp_events <- sh.s_bgp_events + 1;
  Sim.Engine.schedule sh.sengine ~at:msg.b_arrival (fun () ->
      sh.s_bgp_events <- sh.s_bgp_events - 1;
      deliver sh msg.b_session msg.b_action)

(* Record a loc-RIB change of [asn] in each collector slice subscribed
   to it: count it, and log it only where a reader started the log. The
   latest route is the speaker's own ({!Collector.route_view}). *)
let rec record_change asn ~now prefix route = function
  | [] -> ()
  | slice :: rest ->
      slice.ccount <- slice.ccount + 1;
      if slice.clogging then
        slice.crecords <- { time = now; speaker = asn; prefix; route } :: slice.crecords;
      record_change asn ~now prefix route rest

let create ~engine ~graph ?config_of ?(mrai = 30.0)
    ?(fib_install_delay = 0.0) ?shards:shard_count ?(record_barriers = false) () =
  let config_of =
    match config_of with
    | Some f -> f
    | None -> fun _ -> Policy.default
  in
  let ases = As_graph.as_list graph in
  let shard_ix_tbl = Asn.Table.create 256 in
  let mk_shard six sengine sstore =
    {
      six;
      sengine;
      sstore;
      emitter = (fun _ _ _ -> ());
      s_bgp_events = 0;
      s_delivered = 0;
      outbox = [];
      outbox_n = 0;
    }
  in
  let shard_states =
    match shard_count with
    | None -> [| mk_shard 0 engine (Path_store.create ()) |]
    | Some k ->
        (* Deterministic partition: a fixed seed keeps the cut a pure
           function of (graph, k), which the shard-count byte-equality
           tests rely on. *)
        let part = Partition.compute graph ~parts:(max 1 k) ~seed:0x51ED in
        let k = Partition.parts part in
        List.iter (fun a -> Asn.Table.replace shard_ix_tbl a (Partition.shard_of part a)) ases;
        Array.init k (fun i ->
            mk_shard i (Sim.Engine.create ~now:(Sim.Engine.now engine) ()) (Path_store.create ()))
  in
  let speakers = Asn.Table.create 256 in
  let fib_epoch = ref 0 and changes = ref 0 in
  let sps =
    List.map
      (fun asn ->
        let sstore =
          if Array.length shard_states = 1 then shard_states.(0).sstore
          else shard_states.(Asn.Table.find shard_ix_tbl asn).sstore
        in
        let sp = Speaker.create ~store:sstore ~fib_epoch ~changes ~asn ~config:(config_of asn) () in
        Asn.Table.replace speakers asn sp;
        sp)
      ases
  in
  (* Each directed session exists once, at its sender, wired to the
     receiving speaker. *)
  Speaker.connect sps ~neighbors:(As_graph.neighbors graph);
  let t =
    {
      engine;
      graph;
      speakers;
      mrai;
      originations = Prefix.Map.empty;
      owners = Prefix_trie.create ();
      link_faults = None;
      feeds = Asn.Table.create 256;
      shards = shard_states;
      shard_ix = shard_ix_tbl;
      barrier = None;
      fib_epoch;
      changes;
    }
  in
  Array.iter (fun sh -> sh.emitter <- (fun sp s action -> emit t sh sp s action)) t.shards;
  (match shard_count with
  | None -> ()
  | Some _ ->
      (* The barrier lookahead is the minimum cross-link latency: any
         update emitted inside a window arrives at or after the window's
         end, which is what makes windows causally independent. *)
      let lookahead =
        List.fold_left
          (fun acc a ->
            List.fold_left
              (fun acc (b, _) -> Float.min acc (default_delay a b))
              acc (As_graph.neighbors graph a))
          infinity ases
      in
      let lookahead = if Float.is_finite lookahead then lookahead else 1.0 in
      if lookahead <= 0.0 then
        invalid_arg "Network: sharded mode needs a positive minimum link delay";
      let hooks =
        {
          Shard.Barrier.next_work = (fun i -> Sim.Engine.next_time t.shards.(i).sengine);
          advance = (fun i ~before -> Sim.Engine.run_before t.shards.(i).sengine ~before);
          drain =
            (fun i ->
              let sh = t.shards.(i) in
              let msgs = List.rev sh.outbox in
              sh.outbox <- [];
              sh.outbox_n <- 0;
              msgs);
          inject = (fun msg -> inject_boundary t msg);
          arrival = (fun msg -> msg.b_arrival);
          src_shard = (fun msg -> msg.b_src_shard);
          dst_shard = (fun msg -> msg.b_dst_shard);
          order =
            (fun m1 m2 ->
              match Asn.compare m1.b_from m2.b_from with
              | 0 -> begin
                  match Asn.compare m1.b_session.asn m2.b_session.asn with
                  | 0 -> Prefix.compare (action_prefix m1.b_action) (action_prefix m2.b_action)
                  | c -> c
                end
              | c -> c);
        }
      in
      t.barrier <-
        Some
          (Shard.Barrier.create ~control:engine ~lookahead
             ~shards:(Array.length shard_states) ~record_history:record_barriers hooks));
  (* Collector instrumentation: every speaker reports loc-RIB changes
     into the slices subscribed to it, each in its own shard. *)
  Asn.Table.iter
    (fun asn sp ->
      let sh = shard_for t asn in
      let feeds = ref [] in
      Asn.Table.replace t.feeds asn feeds;
      Speaker.set_on_best_change sp (fun ~now prefix route ->
          record_change asn ~now prefix route !feeds);
      (* Damping reuse timers: when a speaker suppresses a route, wake it
         up to re-run its decision once the penalty has decayed. These
         are shard-local events, scheduled on the speaker's own engine. *)
      Speaker.set_reuse_scheduler sp (fun ~delay prefix ->
          sh.s_bgp_events <- sh.s_bgp_events + 1;
          Sim.Engine.schedule_after sh.sengine ~delay (fun () ->
              sh.s_bgp_events <- sh.s_bgp_events - 1;
              Speaker.reevaluate sp ~emit:sh.emitter ~now:(Sim.Engine.now sh.sengine) prefix));
      if fib_install_delay > 0.0 then begin
        (* The data plane trails the control plane by a deterministic
           per-AS RIB-to-FIB install latency. *)
        let delay =
          fib_install_delay *. (0.25 +. (0.75 *. pair_hash asn asn))
        in
        Speaker.set_fib_commit_hook sp (fun prefix route ->
            Sim.Engine.schedule_after sh.sengine ~delay (fun () ->
                Speaker.install_fib sp prefix route))
      end)
    speakers;
  t

(* The emitter of [sp]'s own shard, for a control-plane call to [sp]. *)
let emitter_of t sp = (shard_for t (Speaker.asn sp)).emitter

let announce t ~origin ~prefix ?per_neighbor () =
  sync t;
  let per_neighbor =
    match per_neighbor with
    | Some f -> f
    | None ->
        let plain = As_path.plain ~origin in
        fun _ -> Some plain
  in
  Prefix_trie.replace t.owners prefix origin;
  t.originations <- Prefix.Map.add prefix per_neighbor t.originations;
  let sp = speaker t origin in
  Speaker.originate sp ~emit:(emitter_of t sp) ~now:(Sim.Engine.now t.engine) ~prefix ~per_neighbor;
  poke t

(* lint: allow LG-DEAD-EXPORT (seam: withdrawal tests in test_bgp.ml) *)
let withdraw t ~origin ~prefix =
  sync t;
  Prefix_trie.remove t.owners prefix;
  t.originations <- Prefix.Map.remove prefix t.originations;
  let sp = speaker t origin in
  Speaker.stop_originating sp ~emit:(emitter_of t sp) ~now:(Sim.Engine.now t.engine) ~prefix;
  poke t

let refresh t ~origin ~prefix =
  sync t;
  let sp = speaker t origin in
  Speaker.refresh_prefix sp ~emit:(emitter_of t sp) ~prefix;
  poke t

let owner_of_address t ip = Prefix_trie.lookup t.owners ip

let best_route t asn prefix =
  sync t;
  Speaker.best (speaker t asn) prefix

let fib_lookup t asn ip =
  sync t;
  Speaker.fib_lookup (speaker t asn) ip

let fib_find t asn ip =
  sync t;
  Speaker.fib_find (speaker t asn) ip

let fib_epoch t =
  sync t;
  !(t.fib_epoch)

let bgp_busy t =
  let acc = ref 0 in
  for i = 0 to Array.length t.shards - 1 do
    let sh = t.shards.(i) in
    acc := !acc + sh.s_bgp_events + sh.outbox_n
  done;
  match t.barrier with Some b -> !acc + Shard.Barrier.backlog b | None -> !acc

let run_until_quiet ?(timeout = 3600.0) t =
  poke t;
  let deadline = Sim.Engine.now t.engine +. timeout in
  let continue = ref true in
  while !continue do
    if bgp_busy t = 0 then continue := false
    else if Sim.Engine.now t.engine >= deadline then continue := false
    else if not (Sim.Engine.step t.engine) then continue := false
  done

let fail_link t ~a ~b =
  sync t;
  let now = Sim.Engine.now t.engine in
  let sa = speaker t a and sb = speaker t b in
  Speaker.session_down sa ~emit:(emitter_of t sa) ~now ~neighbor:b;
  Speaker.session_down sb ~emit:(emitter_of t sb) ~now ~neighbor:a;
  poke t

let restore_link t ~a ~b =
  sync t;
  let now = Sim.Engine.now t.engine in
  let sa = speaker t a and sb = speaker t b in
  Speaker.session_up sa ~emit:(emitter_of t sa) ~now ~neighbor:b;
  Speaker.session_up sb ~emit:(emitter_of t sb) ~now ~neighbor:a;
  poke t

let fail_node t asn =
  List.iter (fun (n, _) -> fail_link t ~a:asn ~b:n) (As_graph.neighbors t.graph asn)

let restore_node t asn =
  List.iter (fun (n, _) -> restore_link t ~a:asn ~b:n) (As_graph.neighbors t.graph asn)

let owned_prefixes t asn =
  Prefix_trie.fold (fun p o acc -> if Asn.equal o asn then p :: acc else acc) t.owners []
  |> List.sort Prefix.compare

(* A crash loses the whole loc-RIB: sessions drop (flushing the adj-RIBs
   on both sides) and local originations are forgotten. The
   administrative intent in [originations] survives, which is what
   {!reoriginate} re-announces from — so a restarted origin re-announces
   whatever it was last configured to announce (a standing poison
   included), as a router reloading its config would. *)
let crash_node t asn =
  fail_node t asn;
  let sp = speaker t asn in
  let now = Sim.Engine.now t.engine in
  List.iter
    (fun prefix -> Speaker.stop_originating sp ~emit:(emitter_of t sp) ~now ~prefix)
    (Speaker.originated sp);
  poke t

let reoriginate t asn =
  sync t;
  let sp = speaker t asn in
  let now = Sim.Engine.now t.engine in
  List.iter
    (fun prefix ->
      match Prefix.Map.find_opt prefix t.originations with
      | Some per_neighbor -> Speaker.originate sp ~emit:(emitter_of t sp) ~now ~prefix ~per_neighbor
      | None -> ())
    (owned_prefixes t asn);
  poke t

let set_link_faults t f = t.link_faults <- f

module Collector = struct
  type net = t

  type t = {
    subscribed : Asn.t list;  (** the peers in the world, sorted, once each *)
    subs : collector_shard array;  (** one slice per shard *)
    cnet : net;
    mutable mark : int;
        (** the world's loc-RIB change counter at attach or the latest
            clear: a peer's route is in view once its stamp is above it *)
  }

  let attach (net : net) ~peers =
    let subscribed = List.filter (Asn.Table.mem net.feeds) (List.sort_uniq Asn.compare peers) in
    let c =
      {
        subscribed;
        subs =
          Array.init (Array.length net.shards) (fun _ ->
              { crecords = []; clogging = false; ccount = 0 });
        cnet = net;
        mark = !(net.changes);
      }
    in
    (* Each peer of the world writes to its own shard's slice; a peer
       named twice is subscribed once, and a name outside the world
       never changes a loc-RIB. *)
    List.iter
      (fun peer ->
        let feeds = Asn.Table.find net.feeds peer in
        feeds := c.subs.(shard_ix net peer) :: !feeds)
      subscribed;
    c

  (* Sharded logs merge the per-shard slices in the canonical
     (time, speaker) order — per-speaker record order is preserved by
     the stable sort (each speaker records into exactly one slice), so
     the merged log is a pure function of what happened, not of the
     partitioning. The legacy path is the original single-slice log. *)
  let log c =
    sync c.cnet;
    if Option.is_none c.cnet.barrier then List.rev c.subs.(0).crecords
    else
      Array.to_list c.subs
      |> List.concat_map (fun s -> List.rev s.crecords)
      |> List.stable_sort (fun r1 r2 ->
             match Float.compare r1.time r2.time with
             | 0 -> Asn.compare r1.speaker r2.speaker
             | cmp -> cmp)

  let since c time = List.filter (fun r -> r.time >= time) (log c)

  let count c =
    sync c.cnet;
    Array.fold_left (fun n s -> n + s.ccount) 0 c.subs

  let clear c =
    Array.iter
      (fun s ->
        s.crecords <- [];
        s.clogging <- true)
      c.subs;
    c.mark <- !(c.cnet.changes)

  (* Every loc-RIB change stamps its slot with the world's counter and,
     at a subscribed peer, is recorded here with the new best; so the
     latest recorded route is the speaker's best exactly when its stamp
     is above the mark. *)
  let route_view c ~peer ~prefix =
    sync c.cnet;
    if not (List.exists (Asn.equal peer) c.subscribed) then None
    else begin
      let sp = speaker c.cnet peer in
      if Speaker.change_stamp sp prefix > c.mark then Some (Speaker.best sp prefix) else None
    end
end

let message_count t =
  sync t;
  Array.fold_left (fun acc sh -> acc + sh.s_delivered) 0 t.shards
