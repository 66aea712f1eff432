(* Every export has a caller outside this file, each reached a
   different way; [seam] is kept for a test on purpose. *)
let spin x = x + 1
let turn x = x + 2
let twist x = x + 3
let nudge x = x + 4

(* lint: allow LG-DEAD-EXPORT (seam: a test drives it directly) *)
let seam x = x + 5
