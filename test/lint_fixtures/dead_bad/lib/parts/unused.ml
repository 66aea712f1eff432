(* Must flag: an export no file calls. *)
let nobody x = x + 1
