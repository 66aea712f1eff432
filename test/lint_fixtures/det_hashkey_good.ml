(* must-pass fixture: the flat-key spellings of det_hashkey_bad.ml. *)

let key a b = (a * 65536) + b

let remember seen a b = Hashtbl.replace seen (key a b) ()

let known seen a b = Hashtbl.mem seen (key a b)

(* A keyed table module hashes a structured key with its own function. *)
let lookup routes src dst = Pair_tbl.find_opt routes (src, dst)

let forget routes src dst = Hashtbl.remove routes (key src dst)
