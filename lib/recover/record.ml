open Net

type outcome_kind = Repaired | Stood_down | Gave_up
type outcome = { target : Asn.t; kind : outcome_kind; reason : string }

type action =
  | Poison_announce of { target : Asn.t; poison : Asn.t; planned : bool }
  | Poison_reannounce of { poison : Asn.t; announcement : int }
  | Unpoison of { poison : Asn.t; repaired : bool; reason : string }
  | Breaker_trip of { poison : Asn.t; reason : string }
  | Plan_demotion of { poison : Asn.t; reason : string }
  | Outcome of outcome

type t = { seq : int; at : float; action : action }

(* Free-text fields (give-up reasons, rollback causes) may contain the
   field separators; percent-encode the separators ('|' here, ' ' in the
   snapshot codec which reuses this escaper), the escape character and
   line breaks so an escaped field never splits. *)
let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string b "%25"
      | '|' -> Buffer.add_string b "%7c"
      | ' ' -> Buffer.add_string b "%20"
      | '\n' -> Buffer.add_string b "%0a"
      | '\r' -> Buffer.add_string b "%0d"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let hex_digit c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let unescape s =
  let n = String.length s in
  let b = Buffer.create n in
  let rec go i =
    if i >= n then Some (Buffer.contents b)
    else if Char.equal s.[i] '%' then
      if i + 2 >= n then None
      else
        match (hex_digit s.[i + 1], hex_digit s.[i + 2]) with
        | Some hi, Some lo ->
            Buffer.add_char b (Char.chr ((16 * hi) + lo));
            go (i + 3)
        | _ -> None
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0

(* Floats travel as hex floats ("%h"): the round trip through
   [float_of_string] is bit-exact, including the infinities, so a
   replayed journal compares byte-for-byte with the original. *)
let float_field f = Printf.sprintf "%h" f
let asn_field a = string_of_int (Asn.to_int a)
let bool_field b = if b then "1" else "0"

let kind_to_string = function
  | Repaired -> "repaired"
  | Stood_down -> "stood_down"
  | Gave_up -> "gave_up"

let kind_of_string = function
  | "repaired" -> Some Repaired
  | "stood_down" -> Some Stood_down
  | "gave_up" -> Some Gave_up
  | _ -> None

let to_line { seq; at; action } =
  let fields =
    match action with
    | Poison_announce { target; poison; planned } ->
        [ "poison"; asn_field target; asn_field poison; bool_field planned ]
    | Poison_reannounce { poison; announcement } ->
        [ "reannounce"; asn_field poison; string_of_int announcement ]
    | Unpoison { poison; repaired; reason } ->
        [ "unpoison"; asn_field poison; bool_field repaired; escape reason ]
    | Breaker_trip { poison; reason } -> [ "breaker"; asn_field poison; escape reason ]
    | Plan_demotion { poison; reason } -> [ "demote"; asn_field poison; escape reason ]
    | Outcome { target; kind; reason } ->
        [ "outcome"; asn_field target; kind_to_string kind; escape reason ]
  in
  String.concat "|" (string_of_int seq :: float_field at :: fields)

let ( let* ) o f = Option.bind o f

let asn_of_field s =
  let* n = int_of_string_opt s in
  if n < 0 then None else Some (Asn.of_int n)

let bool_of_field = function "1" -> Some true | "0" -> Some false | _ -> None

let action_of_fields = function
  | [ "poison"; target; poison; planned ] ->
      let* target = asn_of_field target in
      let* poison = asn_of_field poison in
      let* planned = bool_of_field planned in
      Some (Poison_announce { target; poison; planned })
  | [ "reannounce"; poison; announcement ] ->
      let* poison = asn_of_field poison in
      let* announcement = int_of_string_opt announcement in
      Some (Poison_reannounce { poison; announcement })
  | [ "unpoison"; poison; repaired; reason ] ->
      let* poison = asn_of_field poison in
      let* repaired = bool_of_field repaired in
      let* reason = unescape reason in
      Some (Unpoison { poison; repaired; reason })
  | [ "breaker"; poison; reason ] ->
      let* poison = asn_of_field poison in
      let* reason = unescape reason in
      Some (Breaker_trip { poison; reason })
  | [ "demote"; poison; reason ] ->
      let* poison = asn_of_field poison in
      let* reason = unescape reason in
      Some (Plan_demotion { poison; reason })
  | [ "outcome"; target; kind; reason ] ->
      let* target = asn_of_field target in
      let* kind = kind_of_string kind in
      let* reason = unescape reason in
      Some (Outcome { target; kind; reason })
  | _ -> None

let of_line line =
  match String.split_on_char '|' line with
  | seq :: at :: fields -> begin
      match (int_of_string_opt seq, float_of_string_opt at, action_of_fields fields) with
      | Some seq, Some at, Some action -> Ok { seq; at; action }
      | _ -> Error (Printf.sprintf "malformed journal line: %s" line)
    end
  | _ -> Error (Printf.sprintf "malformed journal line: %s" line)
