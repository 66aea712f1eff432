(* Addressing primitives: IPv4, prefixes, the LPM trie. *)

open Net

let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

let test_ipv4_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Ipv4.to_string (ip s)))
    [ "0.0.0.0"; "10.1.2.3"; "192.0.2.255"; "255.255.255.255" ];
  Alcotest.(check bool) "bad input" true (Ipv4.of_string "1.2.3" = None);
  Alcotest.(check bool) "octet overflow" true (Ipv4.of_string "1.2.3.256" = None);
  Alcotest.(check bool) "garbage" true (Ipv4.of_string "a.b.c.d" = None)

let test_ipv4_unsigned_order () =
  Alcotest.(check bool) "10.0.0.1 < 192.0.2.1" true (Ipv4.compare (ip "10.0.0.1") (ip "192.0.2.1") < 0);
  Alcotest.(check bool) "192.0.2.1 < 224.0.0.1" true
    (Ipv4.compare (ip "192.0.2.1") (ip "224.0.0.1") < 0);
  Alcotest.(check bool) "224 > 10 (unsigned, not signed)" true
    (Ipv4.compare (ip "224.0.0.1") (ip "10.0.0.1") > 0)

let test_ipv4_arith () =
  Alcotest.(check string) "add carries" "10.0.1.0" (Ipv4.to_string (Ipv4.add (ip "10.0.0.255") 1));
  Alcotest.(check string) "wraparound" "0.0.0.0"
    (Ipv4.to_string (Ipv4.add (ip "255.255.255.255") 1))

let test_prefix_parse_canonicalize () =
  let p = pfx "10.1.2.3/24" in
  Alcotest.(check string) "host bits cleared" "10.1.2.0/24" (Prefix.to_string p);
  Alcotest.(check int) "length" 24 (Prefix.length p);
  Alcotest.(check bool) "bad length" true (Prefix.of_string "10.0.0.0/33" = None);
  Alcotest.(check bool) "no slash" true (Prefix.of_string "10.0.0.0" = None)

let test_prefix_membership () =
  let p = pfx "203.0.112.0/23" in
  Alcotest.(check bool) "first in" true (Prefix.mem (ip "203.0.112.0") p);
  Alcotest.(check bool) "last in" true (Prefix.mem (ip "203.0.113.255") p);
  Alcotest.(check bool) "next out" false (Prefix.mem (ip "203.0.114.0") p);
  Alcotest.(check bool) "covers production" true
    (Prefix.contains_prefix ~outer:p ~inner:(pfx "203.0.113.0/24"));
  Alcotest.(check bool) "not covered the other way" false
    (Prefix.contains_prefix ~outer:(pfx "203.0.113.0/24") ~inner:p);
  Alcotest.(check bool) "self covers self" true (Prefix.contains_prefix ~outer:p ~inner:p)

let test_prefix_split_and_addresses () =
  let p = pfx "203.0.112.0/23" in
  (match Prefix.split p with
  | Some (low, high) ->
      Alcotest.(check string) "low half" "203.0.112.0/24" (Prefix.to_string low);
      Alcotest.(check string) "high half" "203.0.113.0/24" (Prefix.to_string high)
  | None -> Alcotest.fail "split failed");
  Alcotest.(check bool) "/32 does not split" true (Prefix.split (pfx "10.0.0.1/32") = None);
  Alcotest.(check int) "size /23" 512 (Prefix.size p);
  Alcotest.(check string) "first" "203.0.112.0" (Ipv4.to_string (Prefix.first_address p));
  Alcotest.(check string) "nth" "203.0.112.7" (Ipv4.to_string (Prefix.nth_address p 7))

let test_trie_lpm () =
  let open Prefix_trie in
  let t =
    empty
    |> add (pfx "10.0.0.0/8") "eight"
    |> add (pfx "10.1.0.0/16") "sixteen"
    |> add (pfx "10.1.2.0/24") "twentyfour"
  in
  let lookup_name a =
    match lookup (ip a) t with
    | Some (_, v) -> v
    | None -> "none"
  in
  Alcotest.(check string) "most specific wins" "twentyfour" (lookup_name "10.1.2.3");
  Alcotest.(check string) "mid" "sixteen" (lookup_name "10.1.3.1");
  Alcotest.(check string) "outer" "eight" (lookup_name "10.2.0.1");
  Alcotest.(check string) "miss" "none" (lookup_name "11.0.0.1");
  Alcotest.(check int) "cardinal" 3 (cardinal t);
  let t' = remove (pfx "10.1.2.0/24") t in
  Alcotest.(check string) "after remove, falls back" "sixteen"
    (match lookup (ip "10.1.2.3") t' with
    | Some (_, v) -> v
    | None -> "none")

let test_default_route_prefix () =
  (* A /0 matches everything: usable as a default route entry. *)
  let open Prefix_trie in
  let t = empty |> add (pfx "0.0.0.0/0") "default" in
  match lookup (ip "198.51.100.77") t with
  | Some (_, v) -> Alcotest.(check string) "default matches" "default" v
  | None -> Alcotest.fail "default route missed"

(* Random prefixes for property tests. *)
let arbitrary_prefix =
  QCheck.map
    (fun (a, b, c, len) -> Prefix.make (Ipv4.of_octets a b c 0) len)
    QCheck.(quad (int_range 0 255) (int_range 0 255) (int_range 0 255) (int_range 0 24))

let prop_trie_matches_naive =
  QCheck.Test.make ~name:"trie lookup = naive longest match" ~count:300
    QCheck.(pair (small_list arbitrary_prefix) (quad (int_range 0 255) (int_range 0 255) (int_range 0 255) (int_range 0 255)))
    (fun (prefixes, (a, b, c, d)) ->
      let address = Ipv4.of_octets a b c d in
      let trie =
        List.fold_left (fun t p -> Prefix_trie.add p (Prefix.to_string p) t) Prefix_trie.empty
          prefixes
      in
      let naive =
        List.filter (fun p -> Prefix.mem address p) prefixes
        |> List.sort (fun p q -> Int.compare (Prefix.length q) (Prefix.length p))
        |> function
        | best :: _ -> Some (Prefix.length best)
        | [] -> None
      in
      let via_trie = Option.map (fun (p, _) -> Prefix.length p) (Prefix_trie.lookup address trie) in
      naive = via_trie)

let prop_find_longest_is_lookup =
  QCheck.Test.make ~name:"trie find_longest = value of lookup" ~count:300
    QCheck.(pair (small_list arbitrary_prefix) (quad (int_range 0 255) (int_range 0 255) (int_range 0 255) (int_range 0 255)))
    (fun (prefixes, (a, b, c, d)) ->
      let address = Ipv4.of_octets a b c d in
      (* Also look up addresses inside the generated prefixes, which the
         random address rarely hits. *)
      let addresses = address :: List.map (fun p -> Prefix.nth_address p (d land 0xFF)) prefixes in
      let trie =
        List.fold_left (fun t p -> Prefix_trie.add p (Prefix.to_string p) t) Prefix_trie.empty
          prefixes
      in
      List.for_all
        (fun ip ->
          Option.equal String.equal (Prefix_trie.find_longest ip trie)
            (Option.map snd (Prefix_trie.lookup ip trie)))
        addresses)

let prop_prefix_roundtrip =
  QCheck.Test.make ~name:"prefix string roundtrip" ~count:300 arbitrary_prefix (fun p ->
      match Prefix.of_string (Prefix.to_string p) with
      | Some q -> Prefix.equal p q
      | None -> false)

let prop_split_partitions =
  QCheck.Test.make ~name:"split halves partition the parent" ~count:300
    QCheck.(pair arbitrary_prefix (int_range 0 10000))
    (fun (p, offset) ->
      match Prefix.split p with
      | None -> Prefix.length p = 32
      | Some (low, high) ->
          let address = Ipv4.add (Prefix.first_address p) (offset mod Prefix.size p) in
          let in_low = Prefix.mem address low and in_high = Prefix.mem address high in
          Prefix.mem address p && (in_low <> in_high))

let suite =
  [
    Alcotest.test_case "ipv4 roundtrip" `Quick test_ipv4_roundtrip;
    Alcotest.test_case "ipv4 unsigned order" `Quick test_ipv4_unsigned_order;
    Alcotest.test_case "ipv4 arithmetic" `Quick test_ipv4_arith;
    Alcotest.test_case "prefix parse/canonicalize" `Quick test_prefix_parse_canonicalize;
    Alcotest.test_case "prefix membership" `Quick test_prefix_membership;
    Alcotest.test_case "prefix split/addresses" `Quick test_prefix_split_and_addresses;
    Alcotest.test_case "trie longest-prefix match" `Quick test_trie_lpm;
    Alcotest.test_case "default route /0" `Quick test_default_route_prefix;
    QCheck_alcotest.to_alcotest prop_trie_matches_naive;
    QCheck_alcotest.to_alcotest prop_find_longest_is_lookup;
    QCheck_alcotest.to_alcotest prop_prefix_roundtrip;
    QCheck_alcotest.to_alcotest prop_split_partitions;
  ]
