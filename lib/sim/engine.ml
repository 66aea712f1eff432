(* Binary-heap event queue ordered by (time, sequence number); the sequence
   number keeps events at equal times FIFO, which makes runs reproducible. *)

(* Engine metrics: dispatched events, queue-depth high-watermark and the
   per-event virtual-time advance. All record into per-domain Obs shards,
   so an engine owned by a trial worker never shares state with another
   trial's engine; with metrics disabled each costs one flag read. *)
let m_events = Obs.Metrics.counter "sim.events"
let m_queue_depth = Obs.Metrics.gauge "sim.queue_depth"
let m_time_advance = Obs.Metrics.histogram "sim.time_advance"

(* The heap is three parallel arrays indexed by slot: event times in a
   flat [float array], sequence numbers and actions. Scheduling allocates
   no event record and stores no boxed time, and both sifts move a hole
   instead of swapping, so each level costs one write per array. Slots at
   or past [size] hold [noop], so an action that has run is not kept
   reachable by the queue. *)
type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable actions : (unit -> unit) array;
  mutable size : int;
  mutable clock : float;
  mutable next_seq : int;
}

let noop () = ()

let create ?(now = 0.0) () =
  {
    times = Array.make 64 0.0;
    seqs = Array.make 64 0;
    actions = Array.make 64 noop;
    size = 0;
    clock = now;
    next_seq = 0;
  }

let now t = t.clock

let grow t =
  let cap = Array.length t.times in
  let times = Array.make (2 * cap) 0.0 in
  let seqs = Array.make (2 * cap) 0 in
  let actions = Array.make (2 * cap) noop in
  Array.blit t.times 0 times 0 cap;
  Array.blit t.seqs 0 seqs 0 cap;
  Array.blit t.actions 0 actions 0 cap;
  t.times <- times;
  t.seqs <- seqs;
  t.actions <- actions

(* Slot [j] to slot [i]. *)
let move t ~src:j ~dst:i =
  t.times.(i) <- t.times.(j);
  t.seqs.(i) <- t.seqs.(j);
  t.actions.(i) <- t.actions.(j)

(* Whether the event in slot [i] runs before the one in slot [j]. The
   comparisons against the event being placed are written out in the
   sifts, so no float is passed, and boxed, per level. *)
let earlier t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || (ti = tj && t.seqs.(i) < t.seqs.(j))

let push t time seq action =
  if t.size = Array.length t.times then grow t;
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let tp = t.times.(parent) in
    if tp < time || (tp = time && t.seqs.(parent) < seq) then continue := false
    else begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.actions.(!i) <- action

(* Drop the earliest event (slot 0): the last event fills the hole, sifted
   down from the root. *)
let remove_min t =
  let n = t.size - 1 in
  t.size <- n;
  let time = t.times.(n) and seq = t.seqs.(n) and action = t.actions.(n) in
  t.actions.(n) <- noop;
  if n > 0 then begin
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let c = if l + 1 < n && earlier t (l + 1) l then l + 1 else l in
        let tc = t.times.(c) in
        if tc < time || (tc = time && t.seqs.(c) < seq) then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else continue := false
      end
    done;
    t.times.(!i) <- time;
    t.seqs.(!i) <- seq;
    t.actions.(!i) <- action
  end

let schedule t ~at action =
  if at < t.clock then invalid_arg "Engine.schedule: time in the past";
  push t at t.next_seq action;
  t.next_seq <- t.next_seq + 1;
  Obs.Metrics.observe_max m_queue_depth t.size

let schedule_after t ~delay action =
  if delay < 0.0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule t ~at:(t.clock +. delay) action

let schedule_every t ~every ?until f =
  if every <= 0.0 then invalid_arg "Engine.schedule_every: period must be positive";
  let rec tick () =
    let stop_by_deadline =
      match until with
      | Some deadline -> t.clock > deadline
      | None -> false
    in
    if not stop_by_deadline then begin
      match f t.clock with
      | `Continue -> schedule_after t ~delay:every tick
      | `Stop -> ()
    end
  in
  schedule_after t ~delay:every tick

let step t =
  if t.size = 0 then false
  else begin
    let time = t.times.(0) and action = t.actions.(0) in
    remove_min t;
    Obs.Metrics.incr m_events;
    if Obs.Metrics.on () then Obs.Metrics.observe m_time_advance (time -. t.clock);
    t.clock <- time;
    action ();
    true
  end

let run ?until t =
  let continue = ref true in
  while !continue do
    if t.size = 0 then continue := false
    else begin
      match until with
      | Some deadline when t.times.(0) > deadline ->
          t.clock <- deadline;
          continue := false
      | _ -> ignore (step t)
    end
  done

(* Half-open variant of [run] for barrier-windowed stepping: process
   strictly-earlier events only, so an event at exactly the window
   boundary belongs to the next window. The clock always lands on
   [before] (even from an empty queue), which is what lets a sharded
   network treat every shard engine's clock as "this shard has observed
   everything before the frontier". *)
let run_before t ~before =
  while t.size > 0 && t.times.(0) < before do
    ignore (step t)
  done;
  if before > t.clock then t.clock <- before

let next_time t = if t.size = 0 then None else Some t.times.(0)

let pending t = t.size
