(* Binary-heap event queue ordered by (time, sequence number); the sequence
   number keeps events at equal times FIFO, which makes runs reproducible. *)

(* Engine metrics: dispatched events, queue-depth high-watermark and the
   per-event virtual-time advance. All record into per-domain Obs shards,
   so an engine owned by a trial worker never shares state with another
   trial's engine; with metrics disabled each costs one flag read. *)
let m_events = Obs.Metrics.counter "sim.events"
let m_queue_depth = Obs.Metrics.gauge "sim.queue_depth"
let m_time_advance = Obs.Metrics.histogram "sim.time_advance"

type event = { time : float; seq : int; action : unit -> unit }

type t = {
  mutable heap : event array;
  mutable size : int;
  mutable clock : float;
  mutable next_seq : int;
}

let create ?(now = 0.0) () =
  {
    heap = Array.make 64 { time = 0.0; seq = 0; action = ignore };
    size = 0;
    clock = now;
    next_seq = 0;
  }

let now t = t.clock

let earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t =
  let cap = Array.length t.heap in
  if t.size = cap then begin
    let bigger = Array.make (2 * cap) t.heap.(0) in
    Array.blit t.heap 0 bigger 0 cap;
    t.heap <- bigger
  end

let push t ev =
  grow t;
  let i = ref t.size in
  t.size <- t.size + 1;
  t.heap.(!i) <- ev;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if earlier t.heap.(!i) t.heap.(parent) then begin
      let tmp = t.heap.(parent) in
      t.heap.(parent) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.size && earlier t.heap.(l) t.heap.(!smallest) then smallest := l;
        if r < t.size && earlier t.heap.(r) t.heap.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = t.heap.(!smallest) in
          t.heap.(!smallest) <- t.heap.(!i);
          t.heap.(!i) <- tmp;
          i := !smallest
        end
        else continue := false
      done
    end;
    Some top
  end

let peek t = if t.size = 0 then None else Some t.heap.(0)

let schedule t ~at action =
  if at < t.clock then invalid_arg "Engine.schedule: time in the past";
  let ev = { time = at; seq = t.next_seq; action } in
  t.next_seq <- t.next_seq + 1;
  push t ev;
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
  match pop t with
  | None -> false
  | Some ev ->
      Obs.Metrics.incr m_events;
      Obs.Metrics.observe m_time_advance (ev.time -. t.clock);
      t.clock <- ev.time;
      ev.action ();
      true

let run ?until t =
  let continue = ref true in
  while !continue do
    match peek t with
    | None -> continue := false
    | Some ev -> begin
        match until with
        | Some deadline when ev.time > deadline ->
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
  let continue = ref true in
  while !continue do
    match peek t with
    | Some ev when ev.time < before -> ignore (step t)
    | _ -> continue := false
  done;
  if before > t.clock then t.clock <- before

let next_time t =
  match peek t with
  | Some ev -> Some ev.time
  | None -> None

let pending t = t.size
