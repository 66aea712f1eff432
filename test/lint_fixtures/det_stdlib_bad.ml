(* must-flag fixture: LG-DET-RANDOM and LG-DET-CLOCK through [Stdlib.]
   qualified paths, which name the same values as the bare ones.
   Parsed but never compiled. *)

let roll () = Stdlib.Random.int 6

let elapsed () = Stdlib.Sys.time ()
