(* Barrier accounting (Obs): barriers executed, swept messages split by
   whether they cross a shard boundary, and the simulated width of each
   window. All simulation-derived and merged commutatively across
   domains, so metrics never perturb the byte-identical shard-count and
   --jobs discipline. *)
let m_barriers = Obs.Metrics.counter "shard.barriers"
let m_cut = Obs.Metrics.counter "shard.cut_msgs"
let m_local = Obs.Metrics.counter "shard.local_msgs"
let m_wait = Obs.Metrics.histogram "shard.barrier_wait"

type 'msg hooks = {
  next_work : int -> float option;
  advance : int -> before:float -> unit;
  drain : int -> 'msg list;
  inject : 'msg -> unit;
  arrival : 'msg -> float;
  src_shard : 'msg -> int;
  dst_shard : 'msg -> int;
  order : 'msg -> 'msg -> int;
}

type 'msg t = {
  control : Sim.Engine.t;
  lookahead : float;
  shards : int;
  indices : int list;
  hooks : 'msg hooks;
  record_history : bool;
  mutable backlog : 'msg list;  (** sorted by (arrival, order), oldest sweep first *)
  mutable backlog_len : int;
  mutable frontier : float;
  mutable armed : bool;
  mutable barriers : int;
  mutable cut_msgs : int;
  mutable history : (float * int * int) list;  (** newest first *)
}

let create ~control ~lookahead ~shards ?(record_history = false) hooks =
  if lookahead <= 0.0 || not (Float.is_finite lookahead) then
    invalid_arg "Barrier.create: lookahead must be positive and finite";
  if shards < 1 then invalid_arg "Barrier.create: shards must be >= 1";
  {
    control;
    lookahead;
    shards;
    indices = List.init shards (fun i -> i);
    hooks;
    record_history;
    backlog = [];
    backlog_len = 0;
    frontier = Sim.Engine.now control;
    armed = false;
    barriers = 0;
    cut_msgs = 0;
    history = [];
  }

let backlog t = t.backlog_len
let barriers t = t.barriers
let cut_messages t = t.cut_msgs
let history t = List.rev t.history

(* Canonical message order: arrival time first, then the embedder's
   (src, dst, payload) tiebreak. The sort below is stable and equal keys
   imply equal (src, dst) — hence one source shard — so per-source
   emission order survives the merge, and the injected sequence is a
   pure function of the messages themselves, not of the partitioning. *)
let compare_msgs hooks a b =
  match Float.compare (hooks.arrival a) (hooks.arrival b) with
  | 0 -> hooks.order a b
  | c -> c

(* Drain every outbox (in shard-index order) into the backlog. Fresh
   messages always arrive at or after every not-yet-due backlog entry's
   window, and [List.merge] keeps the left operand first on ties, so
   earlier sweeps stay ahead of later ones at equal keys. *)
let sweep t =
  let fresh =
    List.concat_map
      (fun i ->
        let msgs = t.hooks.drain i in
        List.iter
          (fun m ->
            if t.hooks.src_shard m <> t.hooks.dst_shard m then begin
              t.cut_msgs <- t.cut_msgs + 1;
              Obs.Metrics.incr m_cut
            end
            else Obs.Metrics.incr m_local)
          msgs;
        msgs)
      t.indices
  in
  match fresh with
  | [] -> ()
  | _ ->
      let cmp = compare_msgs t.hooks in
      let fresh = List.stable_sort cmp fresh in
      t.backlog <- List.merge cmp t.backlog fresh;
      t.backlog_len <- t.backlog_len + List.length fresh

let work_min t =
  let m =
    List.fold_left
      (fun acc i ->
        match (t.hooks.next_work i, acc) with
        | Some w, Some a -> Some (Float.min w a)
        | Some w, None -> Some w
        | None, acc -> acc)
      None t.indices
  in
  match (t.backlog, m) with
  | [], m -> m
  | b :: _, Some a -> Some (Float.min (t.hooks.arrival b) a)
  | b :: _, None -> Some (t.hooks.arrival b)

let inject_due t ~before =
  let rec loop injected cut = function
    | m :: rest when t.hooks.arrival m < before ->
        t.hooks.inject m;
        loop (injected + 1)
          (if t.hooks.src_shard m <> t.hooks.dst_shard m then cut + 1 else cut)
          rest
    | rest ->
        t.backlog <- rest;
        t.backlog_len <- t.backlog_len - injected;
        (injected, cut)
  in
  loop 0 0 t.backlog

(* One window [frontier, until): inject due messages in canonical order,
   run every shard up to the barrier, in shard-index order, then sweep
   what the window emitted. [work] is the earliest pending work —
   a window that contains none of it is a frontier hop, not a barrier. *)
let run_window t ~work ~until =
  let start = t.frontier in
  let injected, cut_injected = inject_due t ~before:until in
  List.iter (fun i -> t.hooks.advance i ~before:until) t.indices;
  sweep t;
  t.frontier <- until;
  if injected > 0 || work < until then begin
    t.barriers <- t.barriers + 1;
    Obs.Metrics.incr m_barriers;
    Obs.Metrics.observe m_wait (until -. start);
    if Obs.Trace.on () then
      Obs.Trace.event ~ts:start ~span:"shard.barrier"
        [
          ("until", Obs.Trace.Float until);
          ("injected", Obs.Trace.Int injected);
          ("cut", Obs.Trace.Int cut_injected);
        ];
    if t.record_history then t.history <- (start, injected, cut_injected) :: t.history
  end

let rec fire t =
  t.armed <- false;
  sweep t;
  match work_min t with
  | None -> ()  (* dormant until poked *)
  | Some m ->
      let m = Float.max m t.frontier in
      let b = m +. t.lookahead in
      (* Never advance the shards past the control engine's next event:
         control-plane reads and writes must always find shard clocks at
         or behind their own time. *)
      let b =
        match Sim.Engine.next_time t.control with
        | Some tc when tc < b -> Float.max tc t.frontier
        | _ -> b
      in
      if b > t.frontier then run_window t ~work:m ~until:b;
      (match work_min t with
      | Some _ -> arm t ~at:b
      | None -> ())

and arm t ~at =
  t.armed <- true;
  let at = Float.max at (Sim.Engine.now t.control) in
  Sim.Engine.schedule t.control ~at (fun () -> fire t)

let poke t = if not t.armed then arm t ~at:(Sim.Engine.now t.control)

let sync_all t ~now =
  while t.frontier < now do
    sweep t;
    let until =
      match work_min t with
      | Some m when m < now ->
          Float.min now (Float.max m t.frontier +. t.lookahead)
      | _ -> now
    in
    let work = match work_min t with Some m -> m | None -> infinity in
    run_window t ~work ~until
  done
