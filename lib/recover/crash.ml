type boundary = Before_write | After_write | After_effect

exception Crashed of { boundary : boundary; append : int }

type spec = { boundary : boundary; append : int }

let boundary_equal a b =
  match (a, b) with
  | Before_write, Before_write | After_write, After_write | After_effect, After_effect -> true
  | (Before_write | After_write | After_effect), _ -> false

let boundary_to_string = function
  | Before_write -> "before-write"
  | After_write -> "after-write"
  | After_effect -> "after-effect"

let boundary_of_string = function
  | "before-write" -> Some Before_write
  | "after-write" -> Some After_write
  | "after-effect" -> Some After_effect
  | _ -> None


let () =
  Printexc.register_printer (function
    | Crashed { boundary; append } ->
        Some
          (Printf.sprintf "Recover.Crash.Crashed(%s, append %d)" (boundary_to_string boundary)
             append)
    | _ -> None)
