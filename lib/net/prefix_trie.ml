(* Exact-match tables probed longest length first. All bindings sit in
   one open-addressing table keyed by the prefix (an immediate int that
   already holds the length), which is one exact-match table per length
   sharing its storage; [lengths] lists the lengths with a binding, so a
   lookup probes once per length present, longest first, and stops at
   the first hit. Linear probing with backward-shift removal keeps every
   binding reachable from its home slot without tombstones, and an empty
   slot is a [None] value. *)

type 'a t = {
  mutable keys : Prefix.t array;
  mutable vals : 'a option array;  (** [None]: an empty slot. *)
  mutable size : int;
  counts : int array;  (** Bindings per prefix length. *)
  mutable lengths : int array;  (** The lengths with a binding, longest first. *)
}

let no_prefix = Prefix.make (Ipv4.of_int 0) 0

let create () =
  {
    keys = Array.make 8 no_prefix;
    vals = Array.make 8 None;
    size = 0;
    counts = Array.make 33 0;
    lengths = [||];
  }

let[@inline] home keys p = Prefix.hash p land (Array.length keys - 1)

(* The slot holding [p], or the empty slot that ends its probe run. *)
let rec slot_from keys vals p i =
  match vals.(i) with
  | None -> i
  | Some _ ->
      if Prefix.equal keys.(i) p then i
      else slot_from keys vals p ((i + 1) land (Array.length keys - 1))

let[@inline] slot t p = slot_from t.keys t.vals p (home t.keys p)

(* The bound value's own box, so a probe allocates nothing. *)
let[@inline] find t p = t.vals.(slot t p)

let length t = t.size

let fold f t acc =
  let acc = ref acc in
  Array.iteri (fun i v -> match v with Some v -> acc := f t.keys.(i) v !acc | None -> ()) t.vals;
  !acc

let refresh_lengths t =
  let acc = ref [] in
  for len = 0 to 32 do
    if t.counts.(len) > 0 then acc := len :: !acc
  done;
  t.lengths <- Array.of_list !acc

(* Double the table once it would be more than half full. *)
let grow t =
  let keys = t.keys and vals = t.vals in
  let n = 2 * Array.length keys in
  t.keys <- Array.make n no_prefix;
  t.vals <- Array.make n None;
  Array.iteri
    (fun i v ->
      match v with
      | None -> ()
      | Some _ ->
          let j = slot t keys.(i) in
          t.keys.(j) <- keys.(i);
          t.vals.(j) <- v)
    vals

let rec replace t prefix v =
  let i = slot t prefix in
  match t.vals.(i) with
  | Some _ -> t.vals.(i) <- Some v
  | None when 2 * (t.size + 1) > Array.length t.keys ->
      grow t;
      replace t prefix v
  | None ->
      t.keys.(i) <- prefix;
      t.vals.(i) <- Some v;
      t.size <- t.size + 1;
      let len = Prefix.length prefix in
      t.counts.(len) <- t.counts.(len) + 1;
      if t.counts.(len) = 1 then refresh_lengths t

(* Fill the hole at [hole] from the rest of its probe run: the entry at
   [j] may move into it unless its home lies cyclically in (hole, j]. *)
let rec shift_back t hole j =
  let mask = Array.length t.keys - 1 in
  match t.vals.(j) with
  | None -> t.vals.(hole) <- None
  | Some _ as v ->
      if (j - home t.keys t.keys.(j)) land mask >= (j - hole) land mask then begin
        t.keys.(hole) <- t.keys.(j);
        t.vals.(hole) <- v;
        shift_back t j ((j + 1) land mask)
      end
      else shift_back t hole ((j + 1) land mask)

let remove t prefix =
  let i = slot t prefix in
  match t.vals.(i) with
  | None -> ()
  | Some _ ->
      t.size <- t.size - 1;
      let len = Prefix.length prefix in
      t.counts.(len) <- t.counts.(len) - 1;
      if t.counts.(len) = 0 then refresh_lengths t;
      shift_back t i ((i + 1) land (Array.length t.keys - 1))

let rec lookup_from t ip k =
  if k = Array.length t.lengths then None
  else begin
    let p = Prefix.make ip t.lengths.(k) in
    match find t p with Some v -> Some (p, v) | None -> lookup_from t ip (k + 1)
  end

let lookup t ip = lookup_from t ip 0

(* The first [Some] that [f s] gives, longest length first, is returned
   as is, so the walk allocates nothing of its own; [f] is passed its
   state [s] rather than closing over it, so a caller with a closed [f]
   allocates nothing either. *)
let rec find_longest_from t ip f s k =
  if k = Array.length t.lengths then None
  else begin
    match find t (Prefix.make ip t.lengths.(k)) with
    | Some v -> ( match f s v with Some _ as found -> found | None -> find_longest_from t ip f s (k + 1))
    | None -> find_longest_from t ip f s (k + 1)
  end

let find_longest t ip f s = find_longest_from t ip f s 0
