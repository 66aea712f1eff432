module G = Widgets.Gadget

let run () = G.twist 3
