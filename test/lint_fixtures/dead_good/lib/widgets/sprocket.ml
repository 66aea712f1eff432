(* A sibling module of the same library calls [Gadget.nudge]. *)
let crank x = Gadget.nudge x
