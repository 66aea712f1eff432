open Net

(* The rank is the last thing compared but the one that costs a hash
   mix, so it is worked out only on a tie in preference and length. *)
let compare ~salt ~pref_a ~len_a ~neighbor_a ~pref_b ~len_b ~neighbor_b =
  match Int.compare pref_a pref_b with
  | 0 -> begin
      match Int.compare len_b len_a with
      | 0 -> begin
          match
            Int.compare (Route.tiebreak_rank ~salt neighbor_b) (Route.tiebreak_rank ~salt neighbor_a)
          with
          | 0 -> Asn.compare neighbor_b neighbor_a
          | c -> c
        end
      | c -> c
    end
  | c -> c
