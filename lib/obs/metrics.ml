(* Per-domain shards merged at read time.

   Only the owning domain ever writes a shard (it lives in that domain's
   DLS), so the record path is lock-free and allocation-free; the
   registry mutex guards only metric interning, shard registration and
   snapshot/reset. Merging sums counters and histogram buckets and takes
   the max of gauges — order-insensitive reductions, which is what keeps
   metrics-enabled output byte-identical for every --jobs value. *)

type counter = int
type gauge = int
type histogram = int

let lock = Mutex.create ()
let enabled = Atomic.make false
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let on () = Atomic.get enabled

(* Registry: name -> id per metric family. All access is under [lock];
   ids are assigned densely in registration order and double as shard
   array indices. *)
let counter_ids : (string, int) Hashtbl.t = Hashtbl.create 32
let gauge_ids : (string, int) Hashtbl.t = Hashtbl.create 16
let hist_ids : (string, int) Hashtbl.t = Hashtbl.create 16

(* Every histogram buckets by decades from 1 ms to 1000 s. *)
let bounds = [| 0.001; 0.01; 0.1; 1.0; 10.0; 100.0; 1000.0 |]

let intern tbl name =
  Mutex.lock lock;
  let id =
    match Hashtbl.find_opt tbl name with
    | Some id -> id
    | None ->
        let id = Hashtbl.length tbl in
        Hashtbl.replace tbl name id;
        id
  in
  Mutex.unlock lock;
  id

let counter name = intern counter_ids name
let gauge name = intern gauge_ids name

let histogram name = intern hist_ids name

type shard = {
  mutable c : int array;  (* counter id -> count *)
  mutable g : int array;  (* gauge id -> high-watermark *)
  mutable h : int array array;  (* hist id -> bucket counts (bounds+1) *)
}

let shards : shard list ref = ref []

let shard_key : shard Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s = { c = [||]; g = [||]; h = [||] } in
      Mutex.lock lock;
      shards := s :: !shards;
      Mutex.unlock lock;
      s)

let grow_int_array a n =
  let bigger = Array.make (max n (2 * Array.length a + 8)) 0 in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

let add c n =
  if Atomic.get enabled then begin
    let s = Domain.DLS.get shard_key in
    if c >= Array.length s.c then s.c <- grow_int_array s.c (c + 1);
    Array.unsafe_set s.c c (Array.unsafe_get s.c c + n)
  end

let incr c = add c 1

let observe_max g v =
  if Atomic.get enabled then begin
    let s = Domain.DLS.get shard_key in
    if g >= Array.length s.g then s.g <- grow_int_array s.g (g + 1);
    if v > Array.unsafe_get s.g g then Array.unsafe_set s.g g v
  end

let bucket_of v =
  let n = Array.length bounds in
  let i = ref 0 in
  while !i < n && v > Array.unsafe_get bounds !i do Stdlib.incr i done;
  !i

let observe h v =
  if Atomic.get enabled then begin
    let s = Domain.DLS.get shard_key in
    if h >= Array.length s.h then begin
      let bigger = Array.make (max (h + 1) (2 * Array.length s.h + 4)) [||] in
      Array.blit s.h 0 bigger 0 (Array.length s.h);
      s.h <- bigger
    end;
    if Array.length s.h.(h) = 0 then s.h.(h) <- Array.make (Array.length bounds + 1) 0;
    let row = s.h.(h) in
    let b = bucket_of v in
    Array.unsafe_set row b (Array.unsafe_get row b + 1)
  end

let local_value c =
  let s = Domain.DLS.get shard_key in
  if c < Array.length s.c then s.c.(c) else 0

type hist_row = {
  hname : string;
  bounds : float array;
  counts : int array;
  total : int;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  hists : hist_row list;
}

let sorted_names tbl =
  Hashtbl.fold (fun name id acc -> (name, id) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot () =
  Mutex.lock lock;
  let all = !shards in
  let counters =
    List.map
      (fun (name, id) ->
        let total =
          List.fold_left
            (fun acc s -> if id < Array.length s.c then acc + s.c.(id) else acc)
            0 all
        in
        (name, total))
      (sorted_names counter_ids)
  in
  let gauges =
    List.map
      (fun (name, id) ->
        let hi =
          List.fold_left
            (fun acc s -> if id < Array.length s.g then max acc s.g.(id) else acc)
            0 all
        in
        (name, hi))
      (sorted_names gauge_ids)
  in
  let hists =
    List.map
      (fun (name, id) ->
        let counts = Array.make (Array.length bounds + 1) 0 in
        List.iter
          (fun s ->
            if id < Array.length s.h && Array.length s.h.(id) > 0 then
              Array.iteri (fun i n -> counts.(i) <- counts.(i) + n) s.h.(id))
          all;
        { hname = name; bounds = Array.copy bounds; counts; total = Array.fold_left ( + ) 0 counts })
      (sorted_names hist_ids)
  in
  Mutex.unlock lock;
  { counters; gauges; hists }

let quantile h q =
  if h.total = 0 then None
  else begin
    (* The first bucket whose cumulative count reaches rank ceil(q n). *)
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.total))) in
    let n = Array.length h.bounds in
    let rec go i acc =
      let acc = acc + h.counts.(i) in
      if acc >= rank || i = n then Some (if i < n then h.bounds.(i) else infinity)
      else go (i + 1) acc
    in
    go 0 0
  end

let counter_value snap name =
  match List.assoc_opt name snap.counters with Some v -> v | None -> 0

let reset () =
  Mutex.lock lock;
  List.iter
    (fun s ->
      Array.fill s.c 0 (Array.length s.c) 0;
      Array.fill s.g 0 (Array.length s.g) 0;
      Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) s.h)
    !shards;
  Mutex.unlock lock
