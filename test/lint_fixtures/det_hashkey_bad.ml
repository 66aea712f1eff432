(* must-flag fixture: LG-DET-HASHKEY at the call site. The tables'
   types are inferred, so only the key literal shows the structured key.
   Parsed but never compiled. *)

let remember seen a b = Hashtbl.replace seen (a, b) ()

let known seen a b = Hashtbl.mem seen ((a, b) : int * int)

type pair = { src : int; dst : int }

let lookup routes src dst = Hashtbl.find_opt routes { src; dst }

let forget routes src dst = Stdlib.Hashtbl.remove routes { src; dst }
