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

(* No case for empty cells: [Route.no_route] ranks below every real
   entry, so it is also where the scan starts. Top-level, so the scan
   builds no closure and allocates nothing. *)
let rec best_from (cells : Route.entry array) i acc =
  if i = Array.length cells then acc
  else best_from cells (i + 1) (if compare_entries cells.(i) acc > 0 then cells.(i) else acc)

let best_in_array cells = best_from cells 0 Route.no_route
