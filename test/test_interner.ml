(* Path_store invariants: physical sharing within a world, world-local
   ids, share-nothing across worlds, allocation-free O(1) equality on
   interned values, and the session_down adj-out-clearing regression. *)

open Net
open Topology
open Helpers

module Store = Bgp.Path_store
module P = Bgp.As_path

let test_intern_basics () =
  let s = Store.create () in
  let p1 = P.of_list [ asn 1; asn 2; asn 3 ] in
  let p2 = P.of_list [ asn 1; asn 2; asn 3 ] in
  Alcotest.(check int) "uninterned id is -1" (-1) (P.Internal.id p1);
  let i1 = Store.intern_path s p1 in
  let i2 = Store.intern_path s p2 in
  Alcotest.(check bool) "equal paths collapse to one physical value" true (i1 == i2);
  Alcotest.(check bool) "interned id stamped" true (P.Internal.id i1 >= 0);
  Alcotest.(check bool) "interning is idempotent" true (Store.intern_path s i1 == i1);
  Alcotest.(check int) "one distinct path" 1 (Store.path_count s);
  let q = Store.intern_path s (P.of_list [ asn 9 ]) in
  Alcotest.(check bool) "distinct paths get distinct ids" true
    (P.Internal.id q <> P.Internal.id i1);
  Alcotest.(check int) "two distinct paths" 2 (Store.path_count s)

let test_intern_ann () =
  let s = Store.create () in
  let mk () =
    Bgp.Route.announcement ~prefix:production ~path:(P.of_list [ asn 1; asn 2 ])
  in
  let a1 = Store.intern_ann s (mk ()) in
  let a2 = Store.intern_ann s (mk ()) in
  Alcotest.(check bool) "equal announcements collapse" true (a1 == a2);
  Alcotest.(check bool) "the announcement's path is interned too" true
    (a1.Bgp.Route.path == Store.intern_path s (P.of_list [ asn 1; asn 2 ]));
  Alcotest.(check int) "one distinct announcement" 1 (Store.ann_count s);
  Alcotest.(check bool) "announcement_equal hits the == fast path" true
    (Bgp.Route.announcement_equal a1 a2)

(* E and F both select [A B O] for the production prefix; inside one world
   the shared interner must collapse their RIB entries onto one physical
   announcement, and a fresh structural copy must intern to that value. *)
let test_world_shares_paths () =
  let w = fig2_world () in
  Bgp.Network.announce w.net ~origin:o ~prefix:production ();
  converge w;
  let store = Bgp.Network.path_store w.net in
  let best_at x =
    match Bgp.Network.best_route w.net x production with
    | Some entry -> entry.Bgp.Route.ann
    | None -> Alcotest.fail "expected a best route"
  in
  let at_e = best_at e and at_f = best_at f in
  check_path "E best is [A B O]" [ 30; 20; 10 ] (P.to_list at_e.Bgp.Route.path);
  Alcotest.(check bool) "E and F share one physical announcement" true (at_e == at_f);
  let fresh =
    Bgp.Route.announcement ~prefix:production ~path:(P.of_list [ a; b; o ])
  in
  Alcotest.(check bool) "a structural copy interns to the shared value" true
    (Store.intern_ann store fresh == at_e)

let test_worlds_share_nothing () =
  let s1 = Store.create () and s2 = Store.create () in
  let p1 = Store.intern_path s1 (P.of_list [ asn 7; asn 8 ]) in
  let p2 = Store.intern_path s2 (P.of_list [ asn 7; asn 8 ]) in
  Alcotest.(check bool) "distinct stores keep distinct physical values" true
    (not (p1 == p2));
  Alcotest.(check bool) "equal still answers structurally across worlds" true
    (P.equal p1 p2);
  (* ids are assigned per store in arrival order, so two worlds that do the
     same work stamp the same ids — the property --jobs byte-identity rests on *)
  Alcotest.(check int) "ids are world-local and deterministic" (P.Internal.id p1)
    (P.Internal.id p2)

let test_equal_allocation_free () =
  let s = Store.create () in
  let long last = P.of_list (List.init 500 (fun i -> asn (if i = 499 then last else i + 1))) in
  let p = Store.intern_path s (long 500) in
  let q = Store.intern_path s (long 500) in
  Alcotest.(check bool) "interned long paths physically shared" true (p == q);
  (* same length, differs only in the final element: worst case for a
     structural walk, settled by the cached hash instead *)
  let r = Store.intern_path s (long 9999) in
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
    Bgp.Speaker.create ~asn:(asn 100) ~config:Bgp.Policy.default
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
    Bgp.Speaker.originate sp ~now:2. ~prefix:production
      ~per_neighbor:(fun _ -> Some (P.prepended ~origin:(asn 100) ~copies:2))
  in
  Alcotest.(check bool) "no update leaks to the downed neighbor" true
    (List.for_all (fun (n, _) -> not (Asn.equal n (asn 200))) ups2);
  match Bgp.Speaker.session_up sp ~now:3. ~neighbor:(asn 200) with
  | [ (n, Bgp.Speaker.Announce ann) ] ->
      Alcotest.(check bool) "re-announce goes to the revived neighbor" true
        (Asn.equal n (asn 200));
      check_path "session_up re-sends the current (prepended) table" [ 100; 100 ]
        (P.to_list ann.Bgp.Route.path)
  | _ -> Alcotest.fail "expected exactly one re-announcement on session_up"

let suite =
  [
    Alcotest.test_case "intern_path basics" `Quick test_intern_basics;
    Alcotest.test_case "intern_ann basics" `Quick test_intern_ann;
    Alcotest.test_case "one world shares physical values" `Quick test_world_shares_paths;
    Alcotest.test_case "worlds share nothing" `Quick test_worlds_share_nothing;
    Alcotest.test_case "equality is allocation-free" `Quick test_equal_allocation_free;
    Alcotest.test_case "session_down clears adj-out" `Quick test_session_down_clears_adj_out;
  ]
