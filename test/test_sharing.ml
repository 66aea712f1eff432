(* Route sharing without an interner: physical sharing within a world
   (a receiver keeps its neighbor's export by pointer), share-nothing
   across worlds, allocation-free equality on distinct values, and the
   session_down adj-out-clearing regression. *)

open Net
open Topology
open Helpers

module P = Bgp.As_path

(* E and F both select [A B O] for the production prefix, learned from A:
   both keep A's one export by pointer, so their RIB entries share one
   physical announcement, and a fresh structural copy is equal to it. *)
let best_ann net x =
  match Bgp.Network.best_route net x production with
  | Some entry -> entry.Bgp.Route.ann
  | None -> Alcotest.fail "expected a best route"

let test_world_shares_paths () =
  let w = fig2_world () in
  Bgp.Network.announce w.net ~origin:o ~prefix:production ();
  converge w;
  let at_e = best_ann w.net e and at_f = best_ann w.net f in
  check_path "E best is [A B O]" [ 30; 20; 10 ] (P.to_list at_e.Bgp.Route.path);
  Alcotest.(check bool) "E and F share one physical announcement" true (at_e == at_f);
  let fresh = Bgp.Route.announcement ~prefix:production ~path:(as_path [ a; b; o ]) in
  Alcotest.(check bool) "a structural copy is equal to the shared value" true
    (Bgp.Route.announcement_equal fresh at_e && not (fresh == at_e))

(* Two worlds built alike hold equal routes, never one physical value. *)
let test_worlds_share_nothing () =
  let world () =
    let w = fig2_world () in
    Bgp.Network.announce w.net ~origin:o ~prefix:production ();
    converge w;
    best_ann w.net e
  in
  let in_one = world () and in_other = world () in
  Alcotest.(check bool) "distinct worlds keep distinct physical values" true
    (not (in_one == in_other || in_one.Bgp.Route.path == in_other.Bgp.Route.path));
  Alcotest.(check bool) "equal still answers structurally across worlds" true
    (Bgp.Route.announcement_equal in_one in_other)

let test_equal_allocation_free () =
  let long last = as_path (List.init 500 (fun i -> asn (if i = 499 then last else i + 1))) in
  (* [p] and [q]: two distinct values of one path, which [equal] walks;
     [r] differs from [p] only in the final element, the worst case for
     a walk, which the cached hash settles instead. *)
  let p = long 500 and q = long 500 and r = long 9999 in
  Alcotest.(check bool) "equal paths are distinct values" true (not (p == q));
  let hits = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    if P.equal p q then incr hits;
    if P.equal p r then incr hits
  done;
  let per_call = (Gc.minor_words () -. w0) /. 20_000. in
  Alcotest.(check int) "equality answers correctly" 10_000 !hits;
  Alcotest.(check bool)
    (Printf.sprintf "As_path.equal allocates nothing (%.4f words/call)" per_call)
    true (per_call < 0.01)

(* Regression for the session_down path: downing a session must drop that
   neighbor's whole adj-RIB-out, so nothing leaks to it while down and
   session_up re-advertises the *current* table rather than suppressing it
   as already-sent. *)
let test_session_down_clears_adj_out () =
  let sp =
    standalone_speaker ~asn:(asn 100) ~config:Bgp.Policy.default
      ~neighbors:[ (asn 200, Relationship.Customer); (asn 201, Relationship.Customer) ]
      ()
  in
  let plain = P.plain ~origin:(asn 100) in
  let ups =
    Bgp.Speaker.originate sp ~now:0. ~prefix:production ~per_neighbor:(fun _ -> Some plain)
  in
  Alcotest.(check int) "announced to both neighbors" 2 (List.length ups);
  let downs = Bgp.Speaker.session_down sp ~now:1. ~neighbor:(asn 200) in
  Alcotest.(check int) "leaf session_down sends nothing" 0 (List.length downs);
  let ups2 =
    by_neighbor sp
      (Bgp.Speaker.originate sp ~now:2. ~prefix:production
         ~per_neighbor:(fun _ -> Some (P.prepended ~origin:(asn 100) ~copies:2)))
  in
  Alcotest.(check bool) "no update leaks to the downed neighbor" true
    (List.for_all (fun (n, _) -> not (Asn.equal n (asn 200))) ups2);
  match by_neighbor sp (Bgp.Speaker.session_up sp ~now:3. ~neighbor:(asn 200)) with
  | [ (n, Bgp.Speaker.Announce ann) ] ->
      Alcotest.(check bool) "re-announce goes to the revived neighbor" true
        (Asn.equal n (asn 200));
      check_path "session_up re-sends the current (prepended) table" [ 100; 100 ]
        (P.to_list ann.Bgp.Route.path)
  | _ -> Alcotest.fail "expected exactly one re-announcement on session_up"

let suite =
  [
    Alcotest.test_case "one world shares physical values" `Quick test_world_shares_paths;
    Alcotest.test_case "worlds share nothing" `Quick test_worlds_share_nothing;
    Alcotest.test_case "equality is allocation-free" `Quick test_equal_allocation_free;
    Alcotest.test_case "session_down clears adj-out" `Quick test_session_down_clears_adj_out;
  ]
