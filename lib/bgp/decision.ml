open Net

(* Path length and the salted tiebreak rank are cached in the entry at
   import time (Route.make_entry); this comparison runs once per
   candidate per update, so it must not recompute either. *)
let compare_entries (a : Route.entry) (b : Route.entry) =
  match Int.compare a.local_pref b.local_pref with
  | 0 -> begin
      match Int.compare b.path_len a.path_len with
      | 0 -> begin
          match Int.compare b.tiebreak a.tiebreak with
          | 0 -> Asn.compare b.neighbor a.neighbor
          | c -> c
        end
      | c -> c
    end
  | c -> c

let best entries =
  match entries with
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left
           (fun acc e -> if compare_entries e acc > 0 then e else acc)
           first rest)

(* No allocation: the winner is returned in the array's own [Some] box. *)
let best_in_array (candidates : Route.entry option array) =
  let rec go i acc =
    if i = Array.length candidates then acc
    else
      match (candidates.(i), acc) with
      | None, _ -> go (i + 1) acc
      | Some _, None -> go (i + 1) candidates.(i)
      | Some e, Some cur ->
          go (i + 1) (if compare_entries e cur > 0 then candidates.(i) else acc)
  in
  go 0 None
