(* Must flag [helper]: exported, but only [api] in this same file calls
   it. [api] itself has a caller in bin/. *)
let helper x = x * 2
let api x = helper x + 1
