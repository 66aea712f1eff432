(* The correctness gate: named checks; every failed one is printed by
   name and makes the run's operations count as failed. *)

type t = { mutable failures : string list }

let create () = { failures = [] }
let check g name ok = if not ok then g.failures <- name :: g.failures
let failures g = List.rev g.failures

(* All runs of a set must render the same tables. With [mismatch] the
   last digest is altered first, so the self-test can see the gate
   catch it. *)
let same_digests ?(mismatch = false) g name digests =
  let digests =
    match List.rev digests with
    | last :: rest when mismatch -> List.rev ((last ^ "-mismatch") :: rest)
    | _ -> digests
  in
  match digests with
  | [] -> check g (name ^ ".ran") false
  | d :: rest -> check g name (List.for_all (String.equal d) rest)

let outcome_checks g (o : Workload.outcome) = List.iter (fun (n, ok) -> check g n ok) o.checks
