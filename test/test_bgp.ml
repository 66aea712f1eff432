(* BGP engine semantics: decision process, propagation, loop prevention,
   poisoning, prepending, selective advertising, sessions. *)

open Net
open Helpers

let test_plain_propagation () =
  let w = fig2_world () in
  Bgp.Network.announce w.net ~origin:o ~prefix:production ();
  converge w;
  check_path "B hears [O]" [ 10 ] (path_of_best (Bgp.Network.best_route w.net b production));
  check_path "A hears [B O]" [ 20; 10 ] (path_of_best (Bgp.Network.best_route w.net a production));
  check_path "E prefers short path via A" [ 30; 20; 10 ]
    (path_of_best (Bgp.Network.best_route w.net e production));
  check_path "F hears via A" [ 30; 20; 10 ]
    (path_of_best (Bgp.Network.best_route w.net f production));
  check_path "D hears via C" [ 40; 20; 10 ]
    (path_of_best (Bgp.Network.best_route w.net d production))

let test_poison_reroutes () =
  let w = fig2_world () in
  Bgp.Network.announce w.net ~origin:o ~prefix:production ();
  converge w;
  let poisoned = Bgp.As_path.poisoned ~origin:o ~poison:a in
  Bgp.Network.announce w.net ~origin:o ~prefix:production
    ~per_neighbor:(fun _ -> Some poisoned)
    ();
  converge w;
  Alcotest.(check bool)
    "A loses the route" true
    (Bgp.Network.best_route w.net a production = None);
  check_path "E falls back to the D path" [ 50; 40; 20; 10; 30; 10 ]
    (path_of_best (Bgp.Network.best_route w.net e production));
  Alcotest.(check bool)
    "captive F has no production route" true
    (Bgp.Network.best_route w.net f production = None);
  check_path "B still routes directly" [ 10; 30; 10 ]
    (path_of_best (Bgp.Network.best_route w.net b production))

let test_sentinel_covers_captives () =
  let w = fig2_world () in
  announce_all_infrastructure w;
  Bgp.Network.announce w.net ~origin:o ~prefix:sentinel ();
  Bgp.Network.announce w.net ~origin:o ~prefix:production ();
  converge w;
  let poisoned = Bgp.As_path.poisoned ~origin:o ~poison:a in
  Bgp.Network.announce w.net ~origin:o ~prefix:production
    ~per_neighbor:(fun _ -> Some poisoned)
    ();
  converge w;
  (* F's data plane falls back to the unpoisoned sentinel and still
     delivers to the production address space. *)
  let target = Prefix.nth_address production 7 in
  (match Bgp.Network.fib_lookup w.net f target with
  | Some (p, _) -> Alcotest.(check bool) "F matches the sentinel" true (Prefix.equal p sentinel)
  | None -> Alcotest.fail "F has no covering route at all");
  Alcotest.(check bool)
    "F still reaches production addresses via the sentinel" true
    (Dataplane.Forward.delivers w.net w.failures ~src:f ~dst:target)

let test_poison_ties_with_prepended_baseline () =
  (* O-O-O and O-A-O are the same length, so an AS not routing through A
     keeps its route with a single update and no preference change. *)
  let w = fig2_world () in
  let prepended = Bgp.As_path.prepended ~origin:o ~copies:3 in
  Bgp.Network.announce w.net ~origin:o ~prefix:production
    ~per_neighbor:(fun _ -> Some prepended)
    ();
  converge w;
  check_path "D sees prepended baseline" [ 40; 20; 10; 10; 10 ]
    (path_of_best (Bgp.Network.best_route w.net d production));
  let poisoned = Bgp.As_path.poisoned ~origin:o ~poison:a in
  Bgp.Network.announce w.net ~origin:o ~prefix:production
    ~per_neighbor:(fun _ -> Some poisoned)
    ();
  converge w;
  check_path "D keeps shape, same length" [ 40; 20; 10; 30; 10 ]
    (path_of_best (Bgp.Network.best_route w.net d production))

let test_selective_poisoning () =
  (* Poison A only via one of O's two providers. Build: O multihomed to
     B and C; A above both. A should keep the unpoisoned route (via C)
     and drop the poisoned one (via B). *)
  let g = Topology.As_graph.create () in
  let open Topology in
  List.iter (fun n -> As_graph.add_as g (asn n)) [ 1; 2; 3; 9 ];
  let o' = asn 1 and b' = asn 2 and c' = asn 3 and a' = asn 9 in
  As_graph.add_link g ~a:o' ~b:b' ~rel:Relationship.Provider;
  As_graph.add_link g ~a:o' ~b:c' ~rel:Relationship.Provider;
  As_graph.add_link g ~a:b' ~b:a' ~rel:Relationship.Provider;
  As_graph.add_link g ~a:c' ~b:a' ~rel:Relationship.Provider;
  let w = world_of_graph g in
  Bgp.Network.announce w.net ~origin:o' ~prefix:production
    ~per_neighbor:(fun n ->
      if Asn.equal n b' then Some (Bgp.As_path.poisoned ~origin:o' ~poison:a')
      else Some (Bgp.As_path.plain ~origin:o'))
    ();
  converge w;
  check_path "A keeps only the unpoisoned path via C" [ 3; 1 ]
    (path_of_best (Bgp.Network.best_route w.net a' production));
  check_path "B itself still routes directly" [ 1; 9; 1 ]
    (path_of_best (Bgp.Network.best_route w.net b' production))

let test_loop_limit_quirk () =
  (* An AS with loop_limit = 2 accepts one occurrence of itself; poisoning
     it requires inserting it twice (§7.1). *)
  let g = Topology.As_graph.create () in
  let open Topology in
  List.iter (fun n -> As_graph.add_as g (asn n)) [ 1; 2; 9 ];
  let o' = asn 1 and b' = asn 2 and a' = asn 9 in
  As_graph.add_link g ~a:o' ~b:b' ~rel:Relationship.Provider;
  As_graph.add_link g ~a:b' ~b:a' ~rel:Relationship.Provider;
  let config_of asn_ =
    if Asn.equal asn_ a' then { Bgp.Policy.default with Bgp.Policy.loop_limit = 2 }
    else Bgp.Policy.default
  in
  let w = world_of_graph ~config_of g in
  Bgp.Network.announce w.net ~origin:o' ~prefix:production
    ~per_neighbor:(fun _ -> Some (Bgp.As_path.poisoned ~origin:o' ~poison:a'))
    ();
  converge w;
  Alcotest.(check bool)
    "single poison is shrugged off" true
    (Bgp.Network.best_route w.net a' production <> None);
  Bgp.Network.announce w.net ~origin:o' ~prefix:production
    ~per_neighbor:(fun _ -> Some (Bgp.As_path.poisoned_multi ~origin:o' ~poisons:[ a'; a' ]))
    ();
  converge w;
  Alcotest.(check bool)
    "double poison takes" true
    (Bgp.Network.best_route w.net a' production = None)

let test_cogent_quirk () =
  (* B rejects customer announcements containing its peer P. *)
  let g = Topology.As_graph.create () in
  let open Topology in
  List.iter (fun n -> As_graph.add_as g (asn n)) [ 1; 2; 5 ];
  let o' = asn 1 and b' = asn 2 and p' = asn 5 in
  As_graph.add_link g ~a:o' ~b:b' ~rel:Relationship.Provider;
  As_graph.add_link g ~a:b' ~b:p' ~rel:Relationship.Peer;
  let config_of asn_ =
    if Asn.equal asn_ b' then
      { Bgp.Policy.default with Bgp.Policy.reject_peers_in_customer_paths = true }
    else Bgp.Policy.default
  in
  let w = world_of_graph ~config_of g in
  Bgp.Network.announce w.net ~origin:o' ~prefix:production
    ~per_neighbor:(fun _ -> Some (Bgp.As_path.poisoned ~origin:o' ~poison:p'))
    ();
  converge w;
  Alcotest.(check bool)
    "B filters the poisoned path naming its peer" true
    (Bgp.Network.best_route w.net b' production = None)

let test_withdraw_propagates () =
  let w = fig2_world () in
  Bgp.Network.announce w.net ~origin:o ~prefix:production ();
  converge w;
  Bgp.Network.withdraw w.net ~origin:o ~prefix:production;
  converge w;
  List.iter
    (fun x ->
      Alcotest.(check bool)
        (Printf.sprintf "AS%d loses the route" (Asn.to_int x))
        true
        (Bgp.Network.best_route w.net x production = None))
    [ b; a; c; d; e; f ]

let test_link_failure_control_plane () =
  let w = fig2_world () in
  Bgp.Network.announce w.net ~origin:o ~prefix:production ();
  converge w;
  Bgp.Network.fail_link w.net ~a:b ~b:a;
  converge w;
  check_path "E reroutes after control-plane failure" [ 50; 40; 20; 10 ]
    (path_of_best (Bgp.Network.best_route w.net e production));
  Bgp.Network.restore_link w.net ~a:b ~b:a;
  converge w;
  check_path "E returns after repair" [ 30; 20; 10 ]
    (path_of_best (Bgp.Network.best_route w.net e production))

let test_decision_prefers_customer () =
  let open Topology in
  let self = asn 1 in
  let mk ~rel ~path ~neighbor = candidate ~self ~from:(asn neighbor) ~rel (as_path path) in
  let customer = mk ~rel:Relationship.Customer ~path:[ asn 2; asn 7; asn 8; asn 9 ] ~neighbor:2 in
  let peer = mk ~rel:Relationship.Peer ~path:[ asn 3; asn 9 ] ~neighbor:3 in
  let provider = mk ~rel:Relationship.Provider ~path:[ asn 4; asn 9 ] ~neighbor:4 in
  let winner cs =
    match max_by (decide ~self) cs with Some c -> Asn.to_int c.from | None -> Alcotest.fail "no best"
  in
  Alcotest.(check int) "customer wins" 2 (winner [ provider; peer; customer ]);
  Alcotest.(check int) "peer beats provider" 3 (winner [ provider; peer ])

let test_decision_tiebreaks () =
  let open Topology in
  let winner ~self cs =
    match max_by (decide ~self) cs with Some c -> Asn.to_int c.from | None -> Alcotest.fail "no best"
  in
  let mk ~self ~path ~neighbor =
    candidate ~self ~from:(asn neighbor) ~rel:Relationship.Provider (as_path path)
  in
  let self = asn 1 in
  let short = mk ~self ~path:[ asn 3; asn 9 ] ~neighbor:3 in
  let long = mk ~self ~path:[ asn 4; asn 5; asn 9 ] ~neighbor:4 in
  Alcotest.(check int) "shorter path wins" 3 (winner ~self [ long; short ]);
  (* Same preference and length: the lower rank wins, here over the
     lower neighbor ASN (AS 1 ranks AS 4 at 64551 and AS 5 at 64201). *)
  let x = mk ~self ~path:[ asn 4; asn 9 ] ~neighbor:4 in
  let y = mk ~self ~path:[ asn 5; asn 9 ] ~neighbor:5 in
  Alcotest.(check int) "lowest rank tiebreak" 5 (winner ~self [ x; y ]);
  (* Same rank too (AS 100 ranks AS 200 and AS 26214 both 4489): the
     lowest neighbor ASN wins. *)
  let self = asn 100 in
  let x = mk ~self ~path:[ asn 200; asn 9 ] ~neighbor:200 in
  let y = mk ~self ~path:[ asn 26214; asn 9 ] ~neighbor:26214 in
  Alcotest.(check int) "equal ranks" x.rank y.rank;
  Alcotest.(check int) "lowest neighbor ASN tiebreak" 200 (winner ~self [ y; x ])

let test_as_path_constructors () =
  let p = Bgp.As_path.poisoned ~origin:(asn 1) ~poison:(asn 7) in
  Alcotest.(check (list int)) "O-A-O" [ 1; 7; 1 ] (List.map Asn.to_int (Bgp.As_path.to_list p));
  Alcotest.(check int) "length counts duplicates" 3 (Bgp.As_path.length p);
  Alcotest.(check bool) "contains poison" true (Bgp.As_path.contains (asn 7) p);
  Alcotest.(check int) "origin occurs twice" 2 (Bgp.As_path.count (asn 1) p);
  Alcotest.check Alcotest.bool "poisoning self rejected" true
    (try
       ignore (Bgp.As_path.poisoned ~origin:(asn 1) ~poison:(asn 1));
       false
     with Invalid_argument _ -> true);
  let m = Bgp.As_path.poisoned_multi ~origin:(asn 1) ~poisons:[ asn 7; asn 7 ] in
  Alcotest.(check (list int)) "multi poison" [ 1; 7; 7; 1 ]
    (List.map Asn.to_int (Bgp.As_path.to_list m))

let suite =
  [
    Alcotest.test_case "plain propagation" `Quick test_plain_propagation;
    Alcotest.test_case "poison reroutes" `Quick test_poison_reroutes;
    Alcotest.test_case "sentinel covers captives" `Quick test_sentinel_covers_captives;
    Alcotest.test_case "poison ties with prepended baseline" `Quick
      test_poison_ties_with_prepended_baseline;
    Alcotest.test_case "selective poisoning" `Quick test_selective_poisoning;
    Alcotest.test_case "loop-limit quirk" `Quick test_loop_limit_quirk;
    Alcotest.test_case "cogent-style peer filter" `Quick test_cogent_quirk;
    Alcotest.test_case "withdraw propagates" `Quick test_withdraw_propagates;
    Alcotest.test_case "control-plane link failure" `Quick test_link_failure_control_plane;
    Alcotest.test_case "decision: relationships" `Quick test_decision_prefers_customer;
    Alcotest.test_case "decision: tiebreaks" `Quick test_decision_tiebreaks;
    Alcotest.test_case "as-path constructors" `Quick test_as_path_constructors;
  ]
