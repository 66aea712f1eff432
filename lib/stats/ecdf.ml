type t = { xs : float array; cum : float array (* normalized cumulative mass *) }

let build values weights =
  let n = Array.length values in
  if n = 0 then invalid_arg "Ecdf: empty sample";
  if Array.length weights <> n then invalid_arg "Ecdf: weight/value length mismatch";
  let idx = Array.init n (fun i -> i) in
  Array.sort (fun a b -> Float.compare values.(a) values.(b)) idx;
  let xs = Array.map (fun i -> values.(i)) idx in
  let cum = Array.make n 0.0 in
  let total = ref 0.0 in
  Array.iteri
    (fun k i ->
      let w = weights.(i) in
      if w < 0.0 then invalid_arg "Ecdf: negative weight";
      total := !total +. w;
      cum.(k) <- !total)
    idx;
  if !total <= 0.0 then invalid_arg "Ecdf: zero total weight";
  for k = 0 to n - 1 do
    cum.(k) <- cum.(k) /. !total
  done;
  { xs; cum }

let of_samples values = build values (Array.make (Array.length values) 1.0)
let weighted ~values ~weights = build values weights

let eval t x =
  (* Largest index with xs.(i) <= x, by binary search. *)
  let n = Array.length t.xs in
  if x < t.xs.(0) then 0.0
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if t.xs.(mid) <= x then lo := mid else hi := mid - 1
    done;
    t.cum.(!lo)
  end

let quantile t q =
  if q <= 0.0 || q > 1.0 then invalid_arg "Ecdf.quantile: q out of (0,1]";
  let n = Array.length t.xs in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cum.(mid) >= q then hi := mid else lo := mid + 1
  done;
  t.xs.(!lo)

let series_at t xs = List.map (fun x -> (x, eval t x)) xs
