open Net
open Topology

type config = { min_outage_age : float }

let default_config = { min_outage_age = 300.0 }

type verdict = Poison of Asn.t | Wait of string | Hopeless of string

let pp_verdict fmt = function
  | Poison a -> Format.fprintf fmt "poison %a" Asn.pp a
  | Wait reason -> Format.fprintf fmt "wait (%s)" reason
  | Hopeless reason -> Format.fprintf fmt "hopeless (%s)" reason

let alternate_path_exists search graph ~src ~origin ~avoid =
  Splice.policy_reachable search graph ~src ~dst:origin ~avoiding:(Asn.Set.singleton avoid)

let decide ?feasible config graph ~origin ~diagnosis ~outage_age =
  let open Isolation in
  let feasible =
    match feasible with
    | Some f -> f
    | None ->
        fun ~src ~avoid -> alternate_path_exists (Splice.context ()) graph ~src ~origin ~avoid
  in
  match diagnosis.direction with
  | No_failure -> Hopeless "path works; nothing to repair"
  | Destination_unreachable -> Hopeless "destination unreachable from everywhere"
  | Forward_failure -> Hopeless "forward failure: choose a different egress instead"
  | Reverse_failure | Bidirectional -> begin
      match blamed_as diagnosis.blame with
      | None -> Hopeless "failure not located"
      | Some target ->
          if Asn.equal target origin || Asn.equal target diagnosis.src then
            Hopeless "failure is local; fix it directly"
          else if outage_age < config.min_outage_age then
            Wait
              (Printf.sprintf "outage only %.0fs old (< %.0fs)" outage_age
                 config.min_outage_age)
          else if
            (* The party that must route around the blamed AS is the
               remote destination, whose reverse path toward the origin
               is the broken one. *)
            not (feasible ~src:diagnosis.dst ~avoid:target)
          then
            Hopeless
              (Printf.sprintf "no policy-compliant path around %s" (Asn.to_string target))
          else Poison target
    end

module Residual = struct
  type stats = { elapsed : float; count : int; mean : float; median : float; p25 : float }

  let at ~durations ~elapsed =
    let survivors =
      Array.of_list
        (List.filter_map
           (fun d -> if d >= elapsed then Some (d -. elapsed) else None)
           (Array.to_list durations))
    in
    if Array.length survivors = 0 then None
    else
      Some
        {
          elapsed;
          count = Array.length survivors;
          mean = Stats.Descriptive.mean survivors;
          median = Stats.Descriptive.median survivors;
          p25 = Stats.Descriptive.percentile survivors 25.0;
        }

  let survival_fraction ~durations ~elapsed ~horizon =
    let alive = Array.to_list durations |> List.filter (fun d -> d >= elapsed) in
    match alive with
    | [] -> 0.0
    | _ ->
        let still = List.filter (fun d -> d >= elapsed +. horizon) alive in
        float_of_int (List.length still) /. float_of_int (List.length alive)
end
