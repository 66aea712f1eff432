(* The default source is a constant so span timing is a no-op (and
   deterministic) unless the outermost binary opts in. *)

let source : (unit -> float) ref = ref (fun () -> 0.0)
let set f = source := f
let now () = !source ()
