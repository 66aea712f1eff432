open Widgets

let run () = Gadget.turn 2
