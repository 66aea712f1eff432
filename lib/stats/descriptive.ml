let sum xs = Array.fold_left ( +. ) 0.0 xs

let mean xs =
  if Array.length xs = 0 then invalid_arg "Descriptive.mean: empty sample";
  sum xs /. float_of_int (Array.length xs)

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Descriptive.min_max: empty sample";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Descriptive.percentile: empty sample";
  if p < 0.0 || p > 100.0 then invalid_arg "Descriptive.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let w = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. w)) +. (sorted.(hi) *. w)
  end

let median xs = percentile xs 50.0

let fraction pred xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let hits = Array.fold_left (fun acc x -> if pred x then acc + 1 else acc) 0 xs in
    float_of_int hits /. float_of_int n
  end

let fraction_list pred xs =
  let n = List.length xs in
  if n = 0 then 0.0
  else begin
    let hits = List.fold_left (fun acc x -> if pred x then acc + 1 else acc) 0 xs in
    float_of_int hits /. float_of_int n
  end
