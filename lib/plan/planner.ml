open Net
open Topology
open Lifeguard

(* The verbatim [Decide] reason served when no alternate path exists. *)
let hopeless_reason blamed =
  Printf.sprintf "no policy-compliant path around %s" (Asn.to_string blamed)

let candidate_blames graph ~origin ~target =
  let intermediates path =
    List.filter (fun a -> not (Asn.equal a origin || Asn.equal a target)) path
  in
  let mids ~src ~dst ~avoiding =
    match Splice.policy_path graph ~src ~dst ~avoiding with
    | None -> []
    | Some path -> intermediates path
  in
  (* Isolation blames ASes of the path actually routed, which need not be
     the one splice prefers — and after a reroute it blames ASes of the
     alternate. Enumerate both directions' primary paths, then the splice
     alternate around each primary intermediate, and plan for the union. *)
  let primaries =
    mids ~src:target ~dst:origin ~avoiding:Asn.Set.empty
    @ mids ~src:origin ~dst:target ~avoiding:Asn.Set.empty
  in
  let union =
    List.fold_left
      (fun acc mid ->
        let acc =
          List.fold_left
            (fun acc a -> Asn.Set.add a acc)
            acc
            (mids ~src:target ~dst:origin ~avoiding:(Asn.Set.singleton mid))
        in
        List.fold_left
          (fun acc a -> Asn.Set.add a acc)
          acc
          (mids ~src:origin ~dst:target ~avoiding:(Asn.Set.singleton mid)))
      (Asn.Set.of_list primaries) primaries
  in
  Asn.Set.elements union

let remedy_for graph ~store ~origin ~target ~blamed =
  if Splice.policy_reachable graph ~src:target ~dst:origin
       ~avoiding:(Asn.Set.singleton blamed)
  then begin
    let path =
      Bgp.Path_store.intern_path store (Bgp.As_path.poisoned ~origin ~poison:blamed)
    in
    let direct_provider =
      List.exists (fun (n, _) -> Asn.equal n blamed) (As_graph.neighbors graph origin)
    in
    if direct_provider then Plan_store.Selective_poison { path; via = [ blamed ] }
    else Plan_store.Poison { path }
  end
  else Plan_store.Hopeless (hopeless_reason blamed)

let remedy_for_class graph ~store ~origin ~target ~cls =
  match cls.Failure_class.direction with
  | Isolation.Reverse_failure | Isolation.Bidirectional ->
      if Asn.equal cls.Failure_class.blamed origin then
        Plan_store.Hopeless "failure is local; fix it directly"
      else remedy_for graph ~store ~origin ~target ~blamed:cls.Failure_class.blamed
  | Isolation.Forward_failure -> Plan_store.Alternate_path
  | Isolation.No_failure -> Plan_store.Hopeless "path works; nothing to repair"
  | Isolation.Destination_unreachable ->
      Plan_store.Hopeless "destination unreachable from everywhere"

let classes_of blamed =
  List.concat_map
    (fun direction ->
      List.map
        (fun reversal -> { Failure_class.blamed; direction; reversal })
        [ false; true ])
    [ Isolation.Reverse_failure; Isolation.Bidirectional ]

let build ~graph ~store ~plan ~targets =
  let origin = plan.Remediate.origin in
  List.fold_left
    (fun acc target ->
      if Asn.equal target origin then acc
      else
        let blames = candidate_blames graph ~origin ~target in
        List.fold_left
          (fun acc blamed ->
            let remedy = remedy_for graph ~store ~origin ~target ~blamed in
            let acc =
              List.fold_left
                (fun acc cls -> Plan_store.add acc ~target ~cls remedy)
                acc (classes_of blamed)
            in
            (* Forward failures never poison: the plan records the
               egress-switch advice so a hit still covers them. *)
            List.fold_left
              (fun acc reversal ->
                Plan_store.add acc ~target
                  ~cls:
                    {
                      Failure_class.blamed;
                      direction = Isolation.Forward_failure;
                      reversal;
                    }
                  Plan_store.Alternate_path)
              acc [ false; true ])
          acc blames)
    Plan_store.empty targets
