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

let trie_of bindings =
  let t = Prefix_trie.create () in
  List.iter (fun (p, v) -> Prefix_trie.replace t p v) bindings;
  t

let test_trie_lpm () =
  let t =
    trie_of
      [ (pfx "10.0.0.0/8", "eight"); (pfx "10.1.0.0/16", "sixteen"); (pfx "10.1.2.0/24", "twentyfour") ]
  in
  let lookup_name a =
    match Prefix_trie.lookup t (ip a) with
    | Some (_, v) -> v
    | None -> "none"
  in
  Alcotest.(check string) "most specific wins" "twentyfour" (lookup_name "10.1.2.3");
  Alcotest.(check string) "mid" "sixteen" (lookup_name "10.1.3.1");
  Alcotest.(check string) "outer" "eight" (lookup_name "10.2.0.1");
  Alcotest.(check string) "miss" "none" (lookup_name "11.0.0.1");
  List.iter
    (fun (a, p) ->
      Alcotest.(check (option string)) ("matched prefix for " ^ a) (Some p)
        (Option.map (fun (q, _) -> Prefix.to_string q) (Prefix_trie.lookup t (ip a))))
    [ ("10.1.2.3", "10.1.2.0/24"); ("10.1.3.1", "10.1.0.0/16"); ("10.2.0.1", "10.0.0.0/8") ];
  Prefix_trie.remove t (pfx "10.1.2.0/24");
  Alcotest.(check string) "after remove, falls back" "sixteen" (lookup_name "10.1.2.3");
  Prefix_trie.replace t (pfx "10.1.0.0/16") "sixteen'";
  Alcotest.(check string) "replace rebinds in place" "sixteen'" (lookup_name "10.1.2.3")

let test_default_route_prefix () =
  (* A /0 matches everything: usable as a default route entry. *)
  let t = trie_of [ (pfx "0.0.0.0/0", "default") ] in
  match Prefix_trie.lookup t (ip "198.51.100.77") with
  | Some (_, v) -> Alcotest.(check string) "default matches" "default" v
  | None -> Alcotest.fail "default route missed"

(* Random prefixes for property tests. *)
let arbitrary_prefix =
  QCheck.map
    (fun (a, b, c, len) -> Prefix.make (Ipv4.of_octets a b c 0) len)
    QCheck.(quad (int_range 0 255) (int_range 0 255) (int_range 0 255) (int_range 0 24))

let arbitrary_address =
  QCheck.map
    (fun (a, b, c, d) -> Ipv4.of_octets a b c d)
    QCheck.(quad (int_range 0 255) (int_range 0 255) (int_range 0 255) (int_range 0 255))

(* An interleaved script of [replace] and [remove] over a small pool of
   prefixes (so removals hit bound prefixes and rebinding happens),
   checked after every step against an association-list model: [lookup]
   must return the longest bound prefix covering the address with its
   value, and [find_longest] that value. *)
let value () v = Some v

let prop_trie_matches_naive =
  QCheck.Test.make ~name:"trie lookup = naive longest match" ~count:300
    QCheck.(
      triple
        (list_of_size (Gen.int_range 1 6) arbitrary_prefix)
        (small_list (triple bool small_nat small_nat))
        arbitrary_address)
    (fun (pool, script, address) ->
      let pool = Array.of_list pool in
      let addresses = address :: List.map (fun p -> Prefix.nth_address p 1) (Array.to_list pool) in
      let trie = Prefix_trie.create () in
      let model = ref [] in
      let naive ip =
        List.filter (fun (p, _) -> Prefix.mem ip p) !model
        |> List.sort (fun (p, _) (q, _) -> Int.compare (Prefix.length q) (Prefix.length p))
        |> function
        | best :: _ -> Some best
        | [] -> None
      in
      let agrees ip =
        let expected = naive ip in
        Option.equal
          (fun (p, v) (q, w) -> Prefix.equal p q && Int.equal v w)
          expected (Prefix_trie.lookup trie ip)
        && Option.equal Int.equal (Option.map snd expected) (Prefix_trie.find_longest trie ip value ())
      in
      List.for_all
        (fun (bind, k, v) ->
          let p = pool.(k mod Array.length pool) in
          let others = List.filter (fun (q, _) -> not (Prefix.equal p q)) !model in
          if bind then begin
            Prefix_trie.replace trie p v;
            model := (p, v) :: others
          end
          else begin
            Prefix_trie.remove trie p;
            model := others
          end;
          List.for_all agrees addresses)
        script
      && List.for_all agrees addresses)

let prop_find_longest_is_lookup =
  QCheck.Test.make ~name:"trie find_longest = value of lookup" ~count:300
    QCheck.(pair (small_list arbitrary_prefix) arbitrary_address)
    (fun (prefixes, address) ->
      (* Also look up addresses inside the generated prefixes, which the
         random address rarely hits. *)
      let d = Int32.to_int (Ipv4.to_int32 address) land 0xFF in
      let addresses = address :: List.map (fun p -> Prefix.nth_address p d) prefixes in
      let bindings = List.map (fun p -> (p, Prefix.to_string p)) prefixes in
      let trie = trie_of bindings in
      (* A filter skips the values it rejects: the answer is the lookup
         in the trie of the kept bindings only. *)
      let even v = Prefix.length (Prefix.of_string_exn v) mod 2 = 0 in
      let keep () v = if even v then Some v else None in
      let kept = trie_of (List.filter (fun (_, v) -> even v) bindings) in
      List.for_all
        (fun ip ->
          Option.equal String.equal (Prefix_trie.find_longest trie ip value ())
            (Option.map snd (Prefix_trie.lookup trie ip))
          && Option.equal String.equal (Prefix_trie.find_longest trie ip keep ())
               (Option.map snd (Prefix_trie.lookup kept ip)))
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
