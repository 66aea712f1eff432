open Net
open Lifeguard

type t = {
  blamed : Asn.t;
  direction : Isolation.direction;
  reversal : bool;
}

let direction_rank = function
  | Isolation.Forward_failure -> 0
  | Isolation.Reverse_failure -> 1
  | Isolation.Bidirectional -> 2
  | Isolation.Destination_unreachable -> 3
  | Isolation.No_failure -> 4

let direction_name = function
  | Isolation.Forward_failure -> "forward"
  | Isolation.Reverse_failure -> "reverse"
  | Isolation.Bidirectional -> "bidirectional"
  | Isolation.Destination_unreachable -> "unreachable"
  | Isolation.No_failure -> "none"

let compare a b =
  let c = Asn.compare a.blamed b.blamed in
  if c <> 0 then c
  else
    let c = Int.compare (direction_rank a.direction) (direction_rank b.direction) in
    if c <> 0 then c else Bool.compare a.reversal b.reversal

let of_diagnosis (d : Isolation.diagnosis) =
  match Isolation.blamed_as d.blame with
  | None -> None
  | Some blamed ->
      Some { blamed; direction = d.direction; reversal = Option.is_some d.working_path }

let to_string t =
  Printf.sprintf "%s/%s%s" (Asn.to_string t.blamed)
    (direction_name t.direction)
    (if t.reversal then "+rev" else "")
