(* must-flag fixture: LG-DOM-MUT on a module-level [Atomic.make], a
   mutable cell shared across Par worker domains like a [ref]. *)

let next_id = Atomic.make 0

let fresh () = Atomic.fetch_and_add next_id 1
