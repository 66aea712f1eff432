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

let best_in_table table =
  Asn.Table.fold
    (fun _ e acc ->
      match acc with
      | None -> Some e
      | Some cur -> if compare_entries e cur > 0 then Some e else acc)
    table None
