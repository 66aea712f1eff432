(* A bin-like root doing all its work in an unnamed toplevel item. *)
let () = print_int (Widgets.Gadget.spin 1 + Widgets.Sprocket.crank 2)
