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

type session = {
  peer : Asn.t;  (** The receiver. *)
  ix : int;  (** The session's cell in the network's [last_sent]. *)
  mutable pending : Speaker.action array;
      (* The coalesced batch in [pending.(0 .. pending_n - 1)], sorted by
         Prefix.compare with one action per prefix, so the MRAI flush
         emits in an order fixed by the prefixes themselves. [[||]]
         between rounds: an idle session holds no batch storage. *)
  mutable pending_n : int;  (** Positive exactly while the MRAI timer is armed. *)
}

module Peer_prefix_tbl = Hashtbl.Make (struct
  type t = Asn.t * Prefix.t

  let equal (a1, p1) (a2, p2) = Asn.equal a1 a2 && Prefix.equal p1 p2
  let hash (a, p) = ((Asn.hash a * 0x9E3779B1) lxor Prefix.hash p) land max_int
end)

(* Per-shard collector slice: a speaker's loc-RIB-change callback writes
   only into its own shard's slice, so recording needs no cross-domain
   state. Legacy (unsharded) networks have exactly one slice, making the
   legacy path byte-identical to the pre-shard collector. *)
type collector_shard = {
  mutable crecords : update_record list;
      (** newest first; empty until a reader starts the log *)
  mutable clogging : bool;  (** the log was started ({!Collector.clear}) *)
  mutable ccount : int;  (** records seen since attach, logged or not *)
  clatest : Route.entry option Peer_prefix_tbl.t;
      (** Latest recorded route per (peer, prefix), so [current_route]
          answers in O(1) instead of scanning the records. *)
}

type collector_state = {
  cname : string;
  cpeers : Asn.t list;
  subs : collector_shard array;  (** one slice per shard *)
  csync : unit -> unit;  (** catch shards up before a read *)
  cshard_of : Asn.t -> int;
  csharded : bool;
}

(* A cross-window BGP update: emitted into its source shard's outbox
   during a barrier window, exchanged at the barrier, and injected into
   the destination shard's engine in canonical order. *)
type boundary_msg = {
  b_arrival : float;
  b_from : Asn.t;
  b_to : Asn.t;
  b_src_shard : int;
  b_dst_shard : int;
  b_action : Speaker.action;
}

(* The per-shard slice of the world: its own event queue, path interner
   and delivery accounting. A shard's state is touched only by its own
   window execution and by the control plane while every shard is
   quiescent. Legacy networks are a single shard whose engine IS the
   control engine. *)
type shard_state = {
  six : int;
  sengine : Sim.Engine.t;
  sstore : Path_store.t;
  mutable s_bgp_events : int;  (** BGP events queued in this shard's engine *)
  mutable s_delivered : int;
  mutable outbox : boundary_msg list;  (** reversed emission order *)
  mutable outbox_n : int;
}

type t = {
  engine : Sim.Engine.t;  (** the control engine *)
  graph : As_graph.t;
  speakers : Speaker.t Asn.Table.t;
  store : Path_store.t;
      (** The control-side path/announcement interner ({!announce} paths
          live here). In legacy mode it is also the single shard's store,
          shared by every speaker; in sharded mode each shard has its own
          interner and paths are re-interned on shard entry. *)
  sessions : session array Asn.Table.t;
      (** sender -> pacing state of each directed session, in neighbor
          (ascending receiver ASN) order *)
  last_sent : float array;
      (** When each session (by [ix]) last put updates on the wire: a flat
          float array, so no session holds a boxed float. *)
  mrai : float;
  owners : Asn.t Prefix.Table.t;
  mutable originations : (Asn.t -> As_path.t option) Prefix.Map.t;
      (** Administrative intent: the latest per-neighbor path function
          each originated prefix was announced with. Survives a router
          crash (the config outlives the loc-RIB) so {!reoriginate} can
          re-originate from it. *)
  owner_trie : Asn.t Prefix_trie.t;
  mutable link_faults : (from:Asn.t -> to_:Asn.t -> [ `Deliver | `Drop | `Duplicate ]) option;
  feeds : collector_shard list ref Asn.Table.t;
      (** AS -> the collector slices subscribed to its loc-RIB changes,
          one per collector it peers with ({!Collector.attach}); the
          speaker's change hook writes to these only. *)
  shards : shard_state array;
  shard_ix : int Asn.Table.t;  (** AS -> shard index; empty in legacy mode *)
  mutable barrier : boundary_msg Shard.Barrier.t option;  (** None = legacy *)
  fib_epoch : int ref;  (** Handed to every speaker, which bumps it on each FIB install. *)
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

let path_store t = t.store

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

(* The sessions [a] sends on, by ascending receiver ASN. *)
let sessions_from t a =
  match Asn.Table.find t.sessions a with
  | out -> out
  | exception Not_found -> invalid_arg (Printf.sprintf "Network: unknown %s" (Asn.to_string a))

(* The position of the session to [b] in [out], or [-1]; no option, so
   a lookup allocates nothing. *)
let rec search out b lo hi =
  if lo >= hi then -1
  else begin
    let mid = (lo + hi) lsr 1 in
    match Asn.compare out.(mid).peer b with
    | 0 -> mid
    | c when c < 0 -> search out b (mid + 1) hi
    | _ -> search out b lo mid
  end

let session out a b =
  match search out b 0 (Array.length out) with
  | -1 ->
      invalid_arg
        (Printf.sprintf "Network: no session %s -> %s" (Asn.to_string a) (Asn.to_string b))
  | i -> out.(i)

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

(* Coalesce [action] into the session's batch: only the latest state per
   prefix matters, so a pending prefix is overwritten in place and a new
   one is inserted at its sorted position. The array doubles when full;
   nothing else is allocated. *)
let coalesce s prefix action =
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

(* Forward declaration to tie the delivery/emission knot. [sh] is always
   the shard owning the acting speaker: the destination's for [deliver],
   the sender's for [emit]/[schedule_delivery]. *)
let rec deliver t sh ~from ~to_ action =
  sh.s_delivered <- sh.s_delivered + 1;
  let now = Sim.Engine.now sh.sengine in
  Obs.Metrics.incr m_delivered;
  if Obs.Trace.on () then begin
    let kind, prefix =
      match action with
      | Speaker.Announce ann -> ("announce", ann.Route.prefix)
      | Speaker.Withdraw p -> ("withdraw", p)
    in
    Obs.Trace.event ~ts:now ~span:"bgp.deliver"
      [
        ("from", Obs.Trace.Int (Asn.to_int from));
        ("to", Obs.Trace.Int (Asn.to_int to_));
        ("prefix", Obs.Trace.Str (Prefix.to_string prefix));
        ("kind", Obs.Trace.Str kind);
      ]
  end;
  let out = Speaker.receive (speaker t to_) ~now ~from action in
  emit_all t to_ out

and emit_all t from out =
  match out with
  | [] -> ()
  | _ -> emit_each t (shard_for t from) (sessions_from t from) ~from out

and emit_each t sh sessions ~from = function
  | [] -> ()
  | (to_, action) :: rest ->
      emit t sh (session sessions from to_) ~from ~to_ action;
      emit_each t sh sessions ~from rest

and emit t sh s ~from ~to_ action =
  let now = Sim.Engine.now sh.sengine in
  let last = t.last_sent.(s.ix) and mrai = jittered_mrai t from to_ in
  if now -. last >= mrai && s.pending_n = 0 then begin
    t.last_sent.(s.ix) <- now;
    schedule_delivery t sh ~from ~to_ action
  end
  else begin
    let armed = s.pending_n > 0 in
    coalesce s (action_prefix action) action;
    if not armed then begin
      let fire_at = Float.max now (last +. mrai) in
      sh.s_bgp_events <- sh.s_bgp_events + 1;
      Sim.Engine.schedule sh.sengine ~at:fire_at (fun () -> flush t sh s ~from ~to_)
    end
  end

(* The MRAI timer of session [s] fires: send the coalesced batch. *)
and flush t sh s ~from ~to_ =
  sh.s_bgp_events <- sh.s_bgp_events - 1;
  t.last_sent.(s.ix) <- Sim.Engine.now sh.sengine;
  let batch = s.pending and n = s.pending_n in
  s.pending <- [||];
  s.pending_n <- 0;
  Obs.Metrics.incr m_mrai_rounds;
  if Obs.Trace.on () then
    Obs.Trace.event ~ts:(Sim.Engine.now sh.sengine) ~span:"bgp.mrai"
      [
        ("from", Obs.Trace.Int (Asn.to_int from));
        ("to", Obs.Trace.Int (Asn.to_int to_));
        ("batch", Obs.Trace.Int n);
      ];
  match t.barrier with
  | None -> send_batch t sh ~from ~to_ batch n
  | Some _ ->
      for i = 0 to n - 1 do
        schedule_delivery t sh ~from ~to_ batch.(i)
      done

(* The unsharded flush: the whole batch is one engine event, which
   delivers it in batch (prefix) order. Scheduling one event per message
   would give the same order: the messages share one delay, take
   consecutive sequence numbers at one instant so no other event falls
   between them, and whatever a delivery schedules comes after all of
   them either way. The link-fault verdict is still drawn once per
   message, in batch order; the survivors are compacted in place in the
   detached [batch], so only duplicates allocate (their copies go out as
   a second event at 1.5 times the delay). *)
and send_batch t sh ~from ~to_ batch n =
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
  let kept = !kept in
  if kept > 0 then begin
    sh.s_bgp_events <- sh.s_bgp_events + kept;
    Sim.Engine.schedule_after sh.sengine ~delay (fun () ->
        deliver_batch t sh ~from ~to_ batch kept)
  end;
  match !dups with
  | [] -> ()
  | dups ->
      let copies = Array.of_list (List.rev dups) in
      sh.s_bgp_events <- sh.s_bgp_events + Array.length copies;
      Sim.Engine.schedule_after sh.sengine ~delay:(delay *. 1.5) (fun () ->
          deliver_batch t sh ~from ~to_ copies (Array.length copies))

and deliver_batch t sh ~from ~to_ batch n =
  for i = 0 to n - 1 do
    sh.s_bgp_events <- sh.s_bgp_events - 1;
    deliver t sh ~from ~to_ batch.(i)
  done

and schedule_delivery t sh ~from ~to_ action =
  let delay = default_delay from to_ in
  count_sent action;
  match t.link_faults with
  | None -> send t sh ~from ~to_ action ~delay
  | Some verdict -> begin
      (* Fault injection samples once per wire message, after the MRAI
         batching decided what goes out: a dropped update is silently
         lost (the far side keeps whatever it had), a duplicated one
         arrives twice with the copy trailing by half a propagation
         delay. *)
      match verdict ~from ~to_ with
      | `Deliver -> send t sh ~from ~to_ action ~delay
      | `Drop -> ()
      | `Duplicate ->
          send t sh ~from ~to_ action ~delay;
          send t sh ~from ~to_ action ~delay:(delay *. 1.5)
    end

and send t sh ~from ~to_ action ~delay =
  match t.barrier with
  | None ->
      (* Legacy: direct scheduling on the (single, control) engine. *)
      sh.s_bgp_events <- sh.s_bgp_events + 1;
      Sim.Engine.schedule_after sh.sengine ~delay (fun () ->
          sh.s_bgp_events <- sh.s_bgp_events - 1;
          deliver t sh ~from ~to_ action)
  | Some _ ->
      (* Sharded: every delivery — intra-shard included — goes through
         the barrier outbox, so arrival order at each speaker is the
         canonical (time, src, dst, prefix) order whatever the
         partitioning. Engine sequence numbers differ across shard
         counts; the outbox ordering is what makes results
         byte-identical for every K. *)
      sh.outbox <-
        {
          b_arrival = Sim.Engine.now sh.sengine +. delay;
          b_from = from;
          b_to = to_;
          b_src_shard = sh.six;
          b_dst_shard = shard_ix t to_;
          b_action = action;
        }
        :: sh.outbox;
      sh.outbox_n <- sh.outbox_n + 1

(* Barrier injection: put one due message on its destination shard's
   queue. Runs on the control domain while shards are quiescent. An
   announcement that crosses shards is re-interned here into the
   destination shard's store, the one place a message changes stores:
   [Speaker.receive] trusts a wire announcement to be its own store's. *)
let inject_boundary t msg =
  let sh = t.shards.(msg.b_dst_shard) in
  let action =
    match msg.b_action with
    | Speaker.Announce ann when msg.b_src_shard <> msg.b_dst_shard ->
        Speaker.Announce (Path_store.intern_ann sh.sstore ann)
    | action -> action
  in
  sh.s_bgp_events <- sh.s_bgp_events + 1;
  Sim.Engine.schedule sh.sengine ~at:msg.b_arrival (fun () ->
      sh.s_bgp_events <- sh.s_bgp_events - 1;
      deliver t sh ~from:msg.b_from ~to_:msg.b_to action)

(* Record a loc-RIB change of [asn] in each collector slice subscribed
   to it: count it and keep it as the latest route, and log it only where
   a reader started the log. *)
let rec record_change asn ~now prefix route = function
  | [] -> ()
  | slice :: rest ->
      slice.ccount <- slice.ccount + 1;
      if slice.clogging then
        slice.crecords <- { time = now; speaker = asn; prefix; route } :: slice.crecords;
      Peer_prefix_tbl.replace slice.clatest (asn, prefix) route;
      record_change asn ~now prefix route rest

let create ~engine ~graph ?config_of ?(mrai = 30.0)
    ?(fib_install_delay = 0.0) ?shards:shard_count ?(record_barriers = false) () =
  let config_of =
    match config_of with
    | Some f -> f
    | None -> fun _ -> Policy.default
  in
  let ases = As_graph.as_list graph in
  let store = Path_store.create () in
  let shard_ix_tbl = Asn.Table.create 256 in
  let mk_shard six sengine sstore =
    {
      six;
      sengine;
      sstore;
      s_bgp_events = 0;
      s_delivered = 0;
      outbox = [];
      outbox_n = 0;
    }
  in
  let shard_states =
    match shard_count with
    | None -> [| mk_shard 0 engine store |]
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
  let fib_epoch = ref 0 in
  List.iter
    (fun asn ->
      let sstore =
        if Array.length shard_states = 1 then store
        else shard_states.(Asn.Table.find shard_ix_tbl asn).sstore
      in
      let sp =
        Speaker.create ~store:sstore ~fib_epoch ~asn ~config:(config_of asn)
          ~neighbors:(As_graph.neighbors graph asn) ()
      in
      Asn.Table.replace speakers asn sp)
    ases;
  let t =
    {
      engine;
      graph;
      speakers;
      store;
      sessions = Asn.Table.create 256;
      last_sent =
        Array.make
          (List.fold_left (fun n a -> n + List.length (As_graph.neighbors graph a)) 0 ases)
          neg_infinity;
      mrai;
      owners = Prefix.Table.create 16;
      originations = Prefix.Map.empty;
      owner_trie = Prefix_trie.create ();
      link_faults = None;
      feeds = Asn.Table.create 256;
      shards = shard_states;
      shard_ix = shard_ix_tbl;
      barrier = None;
      fib_epoch;
    }
  in
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
                  match Asn.compare m1.b_to m2.b_to with
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
              let out = Speaker.reevaluate sp ~now:(Sim.Engine.now sh.sengine) prefix in
              emit_all t asn out));
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
  (* Session pacing state per directed adjacency, in neighbor order
     (ascending ASN, which [session]'s binary search relies on). *)
  let next_ix = ref 0 in
  List.iter
    (fun a ->
      let out =
        Array.of_list
          (List.map
             (fun (b, _) ->
               let ix = !next_ix in
               incr next_ix;
               { peer = b; ix; pending = [||]; pending_n = 0 })
             (As_graph.neighbors graph a))
      in
      Asn.Table.replace t.sessions a out)
    ases;
  t

let announce t ~origin ~prefix ?per_neighbor () =
  sync t;
  let per_neighbor =
    match per_neighbor with
    | Some f -> f
    | None ->
        let plain = Path_store.intern_path t.store (As_path.plain ~origin) in
        fun _ -> Some plain
  in
  Prefix.Table.replace t.owners prefix origin;
  t.originations <- Prefix.Map.add prefix per_neighbor t.originations;
  Prefix_trie.replace t.owner_trie prefix origin;
  let out =
    Speaker.originate (speaker t origin) ~now:(Sim.Engine.now t.engine) ~prefix ~per_neighbor
  in
  emit_all t origin out;
  poke t

let withdraw t ~origin ~prefix =
  sync t;
  Prefix.Table.remove t.owners prefix;
  t.originations <- Prefix.Map.remove prefix t.originations;
  Prefix_trie.remove t.owner_trie prefix;
  let out = Speaker.stop_originating (speaker t origin) ~now:(Sim.Engine.now t.engine) ~prefix in
  emit_all t origin out;
  poke t

let refresh t ~origin ~prefix =
  sync t;
  let out = Speaker.refresh_prefix (speaker t origin) ~prefix in
  emit_all t origin out;
  poke t

let owner_of_address t ip = Prefix_trie.lookup t.owner_trie ip

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
  let out_a = Speaker.session_down (speaker t a) ~now ~neighbor:b in
  let out_b = Speaker.session_down (speaker t b) ~now ~neighbor:a in
  emit_all t a out_a;
  emit_all t b out_b;
  poke t

let restore_link t ~a ~b =
  sync t;
  let now = Sim.Engine.now t.engine in
  let out_a = Speaker.session_up (speaker t a) ~now ~neighbor:b in
  let out_b = Speaker.session_up (speaker t b) ~now ~neighbor:a in
  emit_all t a out_a;
  emit_all t b out_b;
  poke t

let fail_node t asn =
  List.iter (fun (n, _) -> fail_link t ~a:asn ~b:n) (As_graph.neighbors t.graph asn)

let restore_node t asn =
  List.iter (fun (n, _) -> restore_link t ~a:asn ~b:n) (As_graph.neighbors t.graph asn)

let owned_prefixes t asn =
  Prefix.Table.fold (fun p o acc -> if Asn.equal o asn then p :: acc else acc) t.owners []
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
    (fun prefix -> emit_all t asn (Speaker.stop_originating sp ~now ~prefix))
    (Speaker.originated sp);
  poke t

let reoriginate t asn =
  sync t;
  let sp = speaker t asn in
  let now = Sim.Engine.now t.engine in
  List.iter
    (fun prefix ->
      match Prefix.Map.find_opt prefix t.originations with
      | Some per_neighbor -> emit_all t asn (Speaker.originate sp ~now ~prefix ~per_neighbor)
      | None -> ())
    (owned_prefixes t asn);
  poke t

let set_link_faults t f = t.link_faults <- f

module Collector = struct
  type net = t
  type t = collector_state

  let attach (net : net) ~name ~peers =
    let k = Array.length net.shards in
    let c =
      {
        cname = name;
        cpeers = peers;
        subs =
          Array.init k (fun _ ->
              { crecords = []; clogging = false; ccount = 0; clatest = Peer_prefix_tbl.create 64 });
        csync = (fun () -> sync net);
        cshard_of = (fun asn -> shard_ix net asn);
        csharded = Option.is_some net.barrier;
      }
    in
    (* Each peer of the world writes to its own shard's slice; a peer
       named twice is subscribed once, and a name outside the world
       never changes a loc-RIB. *)
    List.iter
      (fun peer ->
        match Asn.Table.find_opt net.feeds peer with
        | Some feeds -> feeds := c.subs.(shard_ix net peer) :: !feeds
        | None -> ())
      (List.sort_uniq Asn.compare peers);
    c

  let name c = c.cname
  let peers c = c.cpeers

  (* Sharded logs merge the per-shard slices in the canonical
     (time, speaker) order — per-speaker record order is preserved by
     the stable sort (each speaker records into exactly one slice), so
     the merged log is a pure function of what happened, not of the
     partitioning. The legacy path is the original single-slice log. *)
  let log c =
    c.csync ();
    if not c.csharded then List.rev c.subs.(0).crecords
    else
      Array.to_list c.subs
      |> List.concat_map (fun s -> List.rev s.crecords)
      |> List.stable_sort (fun r1 r2 ->
             match Float.compare r1.time r2.time with
             | 0 -> Asn.compare r1.speaker r2.speaker
             | cmp -> cmp)

  let since c time = List.filter (fun r -> r.time >= time) (log c)

  let count c =
    c.csync ();
    Array.fold_left (fun n s -> n + s.ccount) 0 c.subs

  let clear c =
    Array.iter
      (fun s ->
        s.crecords <- [];
        s.clogging <- true;
        Peer_prefix_tbl.reset s.clatest)
      c.subs

  let current_route c ~peer ~prefix =
    c.csync ();
    match Peer_prefix_tbl.find_opt c.subs.(c.cshard_of peer).clatest (peer, prefix) with
    | Some route -> route
    | None -> None

  let route_view c ~peer ~prefix =
    c.csync ();
    Peer_prefix_tbl.find_opt c.subs.(c.cshard_of peer).clatest (peer, prefix)
end

let message_count t =
  sync t;
  Array.fold_left (fun acc sh -> acc + sh.s_delivered) 0 t.shards
