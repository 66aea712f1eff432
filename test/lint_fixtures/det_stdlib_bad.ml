(* must-flag fixture: LG-DET-RANDOM, LG-DET-CLOCK and LG-DET-POLYEQ
   through [Stdlib.] qualified paths, which name the same values as the
   bare ones. Parsed but never compiled. *)

let roll () = Stdlib.Random.int 6

let elapsed () = Stdlib.Sys.time ()

let digest x = Stdlib.Hashtbl.hash x
