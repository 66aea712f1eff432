(* Binary-heap event queue ordered by (time, sequence number); the sequence
   number keeps events at equal times FIFO, which makes runs reproducible. *)

(* Engine metrics: dispatched events, queue-depth high-watermark and the
   per-event virtual-time advance. All record into per-domain Obs shards,
   so an engine owned by a trial worker never shares state with another
   trial's engine; with metrics disabled each costs one flag read. *)
let m_events = Obs.Metrics.counter "sim.events"
let m_queue_depth = Obs.Metrics.gauge "sim.queue_depth"
let m_time_advance = Obs.Metrics.histogram "sim.time_advance"

(* The heap is three parallel int/float arrays indexed by heap position:
   event times in a flat [float array], sequence numbers, and the cell
   that holds the event's action. Actions live in [actions], by cell:
   written once when the event is scheduled and reset to [noop] when it
   runs, so an action that has run is not kept reachable by the queue.
   Both sifts move a hole through pointer-free arrays only, so no level
   goes through the GC's write barrier. [cells] past [size] holds the
   free cells: a push takes the one at [size], where its hole starts,
   and a pop leaves its cell where the last event moved out. *)
type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable cells : int array;
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
    cells = Array.init 64 Fun.id;
    actions = Array.make 64 noop;
    size = 0;
    clock = now;
    next_seq = 0;
  }

let now t = t.clock

(* Only called with every cell taken: the new cells are the new
   positions' own numbers. *)
let grow t =
  let cap = Array.length t.times in
  let extend a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- extend t.times 0.0;
  t.seqs <- extend t.seqs 0;
  t.cells <- Array.init (2 * cap) (fun i -> if i < cap then t.cells.(i) else i);
  t.actions <- extend t.actions noop

(* Heap position [j] to position [i]. *)
let move t ~src:j ~dst:i =
  t.times.(i) <- t.times.(j);
  t.seqs.(i) <- t.seqs.(j);
  t.cells.(i) <- t.cells.(j)

(* Whether the event at position [i] runs before the one at [j]. The
   comparisons against the event being placed are written out in the
   sifts, so no float is passed, and boxed, per level. *)
let earlier t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || (ti = tj && t.seqs.(i) < t.seqs.(j))

let push t time seq action =
  if t.size = Array.length t.times then grow t;
  let cell = t.cells.(t.size) in
  t.actions.(cell) <- action;
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
  t.cells.(!i) <- cell

(* Drop the earliest event (position 0): the last event fills the hole,
   sifted down from the root, and the dropped event's cell is left free
   at the last event's old position (or at 0 when it was the only one). *)
let remove_min t =
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let time = t.times.(n) and seq = t.seqs.(n) and cell = t.cells.(n) in
    t.cells.(n) <- t.cells.(0);
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
    t.cells.(!i) <- cell
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
    let time = t.times.(0) and cell = t.cells.(0) in
    let action = t.actions.(cell) in
    t.actions.(cell) <- noop;
    remove_min t;
    Obs.Metrics.incr m_events;
    if Obs.Metrics.on () then Obs.Metrics.observe m_time_advance (time -. t.clock);
    t.clock <- time;
    action ();
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some deadline ->
      while t.size > 0 && t.times.(0) <= deadline do
        ignore (step t)
      done;
      if deadline > t.clock then t.clock <- deadline

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
