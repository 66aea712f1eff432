(* lifeguard-lint fixture: must flag LG-OBS-PRINTF once. The nested
   module's [print_string] is not in scope at [shout], so [shout] calls
   the stdout printer, and --effects lists it as printing. *)

module Quiet = struct
  let print_string _ = ()
end

let shout s = print_string s
