open Net
open Topology
open Lifeguard

(* The verbatim [Decide] reason served when no alternate path exists. *)
let hopeless_reason blamed =
  Printf.sprintf "no policy-compliant path around %s" (Asn.to_string blamed)

(* The valley-free questions one target's planning asks, memoized. Every
   one runs between [target] and [origin], in one direction, around at
   most one AS, so it packs into an int key. A memo is made per target
   inside one [build] (or per [candidate_blames] / [remedy_for_class]
   call) and never outlives it, so the planner stays a pure function of
   the graph. *)
module Int_tbl = Hashtbl.Make (Int)

type queries = {
  graph : As_graph.t;
  origin : Asn.t;
  target : Asn.t;
  memo : Asn.t list option Int_tbl.t;
}

let queries graph ~origin ~target = { graph; origin; target; memo = Int_tbl.create 16 }

(* [Splice.policy_path] from target to origin ([toward_origin]) or back,
   avoiding [around] when given. *)
let path q ~toward_origin ~around =
  let avoided = match around with None -> 0 | Some a -> Asn.to_int a + 1 in
  let key = (avoided * 2) + if toward_origin then 1 else 0 in
  match Int_tbl.find_opt q.memo key with
  | Some p -> p
  | None ->
      let src, dst = if toward_origin then (q.target, q.origin) else (q.origin, q.target) in
      let avoiding = match around with None -> Asn.Set.empty | Some a -> Asn.Set.singleton a in
      let p = Splice.policy_path q.graph ~src ~dst ~avoiding in
      Int_tbl.replace q.memo key p;
      p

(* [Splice.policy_reachable ~src:target ~dst:origin] around [blamed]. An
   endpoint cannot be avoided; an AS off the unconstrained path is
   avoided by that very path; only an AS on it needs its own search. *)
let reachable_around q blamed =
  if Asn.equal blamed q.target || Asn.equal blamed q.origin then false
  else
    match path q ~toward_origin:true ~around:None with
    | None -> false
    | Some free ->
        (not (List.exists (Asn.equal blamed) free))
        || Option.is_some (path q ~toward_origin:true ~around:(Some blamed))

let blames q =
  let mids ~toward_origin ~around =
    match path q ~toward_origin ~around with
    | None -> []
    | Some p -> List.filter (fun a -> not (Asn.equal a q.origin || Asn.equal a q.target)) p
  in
  (* Isolation blames ASes of the path actually routed, which need not be
     the one splice prefers — and after a reroute it blames ASes of the
     alternate. Enumerate both directions' primary paths, then the splice
     alternate around each primary intermediate, and plan for the union. *)
  let primaries =
    mids ~toward_origin:true ~around:None @ mids ~toward_origin:false ~around:None
  in
  let union =
    List.fold_left
      (fun acc mid ->
        let add acc toward_origin =
          List.fold_left
            (fun acc a -> Asn.Set.add a acc)
            acc
            (mids ~toward_origin ~around:(Some mid))
        in
        add (add acc true) false)
      (Asn.Set.of_list primaries) primaries
  in
  Asn.Set.elements union

let candidate_blames graph ~origin ~target = blames (queries graph ~origin ~target)

let remedy_for q ~blamed =
  if reachable_around q blamed then begin
    let path = Bgp.As_path.poisoned ~origin:q.origin ~poison:blamed in
    let direct_provider =
      match As_graph.relationship q.graph ~a:q.origin ~b:blamed with
      | Some Relationship.Provider -> true
      | Some (Relationship.Customer | Relationship.Peer) | None -> false
    in
    if direct_provider then Plan_store.Selective_poison { path; via = [ blamed ] }
    else Plan_store.Poison { path }
  end
  else Plan_store.Hopeless (hopeless_reason blamed)

let remedy_for_class graph ~origin ~target ~cls =
  match cls.Failure_class.direction with
  | Isolation.Reverse_failure | Isolation.Bidirectional ->
      if Asn.equal cls.Failure_class.blamed origin then
        Plan_store.Hopeless "failure is local; fix it directly"
      else
        remedy_for (queries graph ~origin ~target) ~blamed:cls.Failure_class.blamed
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

let build ~graph ~store:_ ~plan ~targets =
  let origin = plan.Remediate.origin in
  List.fold_left
    (fun acc target ->
      if Asn.equal target origin then acc
      else
        let q = queries graph ~origin ~target in
        List.fold_left
          (fun acc blamed ->
            let remedy = remedy_for q ~blamed in
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
          acc (blames q))
    Plan_store.empty targets
