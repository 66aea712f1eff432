type t = {
  jobs : int;
  lock : Mutex.t;
  work_available : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()

(* Workers block on [work_available] and drain the shared queue until
   [stopping] is observed with an empty queue. Tasks are opaque [unit ->
   unit] closures: all result plumbing lives in [map], so the worker loop
   never touches batch state. *)
let rec worker_loop t =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.work_available t.lock
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.lock
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.lock;
    task ();
    worker_loop t
  end

let create ?jobs () =
  let jobs =
    match jobs with Some j -> max 1 j | None -> default_jobs ()
  in
  let t =
    {
      jobs;
      lock = Mutex.create ();
      work_available = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      workers = [];
    }
  in
  (* The caller of [map] is the N-th domain: it runs tasks too. *)
  if jobs > 1 then
    t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

(* The caller's share of a batch: pop tasks until the queue is empty. *)
let rec help t =
  Mutex.lock t.lock;
  match Queue.take_opt t.queue with
  | None -> Mutex.unlock t.lock
  | Some task ->
      Mutex.unlock t.lock;
      task ();
      help t

let reraise_first_failure failures =
  Array.iter (function Some exn -> raise exn | None -> ()) failures

let map t f xs =
  if t.stopping then invalid_arg "Par.Pool.map: pool is shut down";
  match xs with
  | [] -> []
  | xs when t.jobs <= 1 || t.workers = [] ->
      (* Inline sequential path: no domains involved at all. *)
      List.map f xs
  | xs ->
      let items = Array.of_list xs in
      let n = Array.length items in
      let results = Array.make n None in
      let failures = Array.make n None in
      let batch_lock = Mutex.create () in
      let batch_done = Condition.create () in
      let remaining = ref n in
      let task i () =
        (match f items.(i) with
        | v -> results.(i) <- Some v
        | exception exn -> failures.(i) <- Some exn);
        Mutex.lock batch_lock;
        decr remaining;
        if !remaining = 0 then Condition.signal batch_done;
        Mutex.unlock batch_lock
      in
      Mutex.lock t.lock;
      for i = 0 to n - 1 do
        Queue.push (task i) t.queue
      done;
      Condition.broadcast t.work_available;
      Mutex.unlock t.lock;
      help t;
      Mutex.lock batch_lock;
      while !remaining > 0 do
        Condition.wait batch_done batch_lock
      done;
      Mutex.unlock batch_lock;
      (* Which failure surfaces must not depend on scheduling: always the
         earliest submitted one. *)
      reraise_first_failure failures;
      Array.to_list
        (Array.map
           (function Some v -> v | None -> assert false)
           results)

let run_trials t thunks = map t (fun f -> f ()) thunks

let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
