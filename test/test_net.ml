(* Addressing primitives: IPv4, prefixes, the LPM trie. *)

open Net

let ip = Helpers.ipv4
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
  let rejects s =
    match Prefix.of_string_exn s with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "bad length" true (rejects "10.0.0.0/33");
  Alcotest.(check bool) "no slash" true (rejects "10.0.0.0")

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
  Alcotest.(check string) "size /23: last" "203.0.113.255"
    (Ipv4.to_string (Prefix.nth_address p 511));
  Alcotest.(check bool) "size /23: past the end" true
    (match Prefix.nth_address p 512 with exception Invalid_argument _ -> true | _ -> false);
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
      Prefix.equal p (Prefix.of_string_exn (Prefix.to_string p)))

let prop_split_partitions =
  QCheck.Test.make ~name:"split halves partition the parent" ~count:300
    QCheck.(pair arbitrary_prefix (int_range 0 10000))
    (fun (p, offset) ->
      match Prefix.split p with
      | None -> Prefix.length p = 32
      | Some (low, high) ->
          let size = 1 lsl (32 - Prefix.length p) in
          let address = Ipv4.add (Prefix.first_address p) (offset mod size) in
          let in_low = Prefix.mem address low and in_high = Prefix.mem address high in
          Prefix.mem address p && (in_low <> in_high))

(* The representation against a reference model over [int32], the type
   addresses and prefix networks had before they became immediate ints:
   every operation must agree with the model, on both sides of
   128.0.0.0 (where a signed [int32] changes sign) and at /0 and /32. *)
module Int32_model = struct
  let addr (a, b, c, d) =
    Int32.logor
      (Int32.shift_left (Int32.of_int a) 24)
      (Int32.logor
         (Int32.shift_left (Int32.of_int b) 16)
         (Int32.logor (Int32.shift_left (Int32.of_int c) 8) (Int32.of_int d)))

  let mask len = if len = 0 then 0l else Int32.shift_left (-1l) (32 - len)

  let to_string x =
    let o shift = Int32.to_int (Int32.logand (Int32.shift_right_logical x shift) 0xFFl) in
    Printf.sprintf "%d.%d.%d.%d" (o 24) (o 16) (o 8) (o 0)

  (* A prefix: (network, length). *)
  let prefix x len = (Int32.logand x (mask len), len)

  let compare (n1, l1) (n2, l2) =
    match Int32.unsigned_compare n1 n2 with 0 -> Int.compare l1 l2 | c -> c

  let mem x (n, l) = Int32.equal (Int32.logand x (mask l)) n
  let contains ~outer:(no, lo) ~inner:(ni, li) = lo <= li && mem ni (no, lo)

  let split (n, l) =
    if l >= 32 then None
    else Some ((n, l + 1), (Int32.logor n (Int32.shift_left 1l (31 - l)), l + 1))
end

(* Octets biased toward the edges: 0, 127, 128 and 255 in the first
   octet put addresses on both sides of the sign change. *)
let arbitrary_octets =
  let octet = QCheck.Gen.(oneof [ oneofl [ 0; 1; 127; 128; 254; 255 ]; int_range 0 255 ]) in
  QCheck.make
    ~print:(fun (a, b, c, d) -> Printf.sprintf "%d.%d.%d.%d" a b c d)
    QCheck.Gen.(quad octet octet octet octet)

let arbitrary_length = QCheck.make QCheck.Gen.(oneof [ oneofl [ 0; 1; 31; 32 ]; int_range 0 32 ])

let sign c = Int.compare c 0

let prop_representation =
  QCheck.Test.make ~name:"ipv4/prefix agree with the int32 model" ~count:1000
    QCheck.(
      quad (pair arbitrary_octets arbitrary_length) (pair arbitrary_octets arbitrary_length)
        arbitrary_octets (int_range 0 0xFFFF))
    (fun ((o1, l1), (o2, l2), o3, k) ->
      let module M = Int32_model in
      let ip (a, b, c, d) = Ipv4.of_octets a b c d in
      let a1 = ip o1 and a2 = ip o2 and a3 = ip o3 in
      let x1 = M.addr o1 and x2 = M.addr o2 and x3 = M.addr o3 in
      let p1 = Prefix.make a1 l1 and p2 = Prefix.make a2 l2 in
      let m1 = M.prefix x1 l1 and m2 = M.prefix x2 l2 in
      let same_prefix p (n, l) =
        Int32.equal (Ipv4.to_int32 (Prefix.first_address p)) n && Prefix.length p = l
      in
      let model_string (n, l) = Printf.sprintf "%s/%d" (M.to_string n) l in
      (* Addresses. *)
      Int32.equal (Ipv4.to_int32 a1) x1
      && Ipv4.compare (Ipv4.of_int32 x1) a1 = 0
      && sign (Ipv4.compare a1 a2) = sign (Int32.unsigned_compare x1 x2)
      && Ipv4.signed a1 = Int32.to_int x1
      && Ipv4.to_string a1 = M.to_string x1
      && Option.map Ipv4.to_int32 (Ipv4.of_string (M.to_string x1)) = Some x1
      && Int32.equal (Ipv4.to_int32 (Ipv4.add a1 k)) (Int32.add x1 (Int32.of_int k))
      (* Prefixes. *)
      && same_prefix p1 m1
      && sign (Prefix.compare p1 p2) = sign (M.compare m1 m2)
      && Prefix.equal p1 p2 = (M.compare m1 m2 = 0)
      && Prefix.mem a3 p1 = M.mem x3 m1
      && Prefix.contains_prefix ~outer:p1 ~inner:p2 = M.contains ~outer:m1 ~inner:m2
      && (match (Prefix.split p1, M.split m1) with
         | None, None -> true
         | Some (lo, hi), Some (mlo, mhi) -> same_prefix lo mlo && same_prefix hi mhi
         | _ -> false)
      && (let i = if l1 = 0 then k else k land ((1 lsl (32 - l1)) - 1) in
          Int32.equal
            (Ipv4.to_int32 (Prefix.nth_address p1 i))
            (Int32.add (fst m1) (Int32.of_int i)))
      && Prefix.to_string p1 = model_string m1
      && Prefix.equal (Prefix.of_string_exn (model_string m1)) p1)

(* The hashes keyed by an address, pinned at the values they had when
   addresses were [int32]: bucket orders and router choices follow
   them. *)
let test_hash_pins () =
  List.iter
    (fun (p, h) -> Alcotest.(check int) ("Prefix.hash " ^ p) h (Prefix.hash (pfx p)))
    [
      ("0.0.0.0/0", 0);
      ("10.0.0.0/8", 445342800710112774);
      ("127.255.255.255/32", 1088731864924329886);
      ("128.0.0.0/1", 3523068091054215040);
      ("203.0.113.0/24", 2251402437137367717);
      ("255.255.255.255/32", 4611545350251878302);
      ("192.0.2.128/25", 1761606058610303045);
    ];
  List.iter
    (fun (a, h, signed) ->
      Alcotest.(check int) ("Ipv4.hash " ^ a) h (Ipv4.hash (ip a));
      Alcotest.(check int) ("Ipv4.signed " ^ a) signed (Ipv4.signed (ip a)))
    [
      ("0.0.0.0", 0, 0);
      ("10.1.2.3", 445515749054520998, 167838211);
      ("127.255.255.255", 1088671360522477808, 2147483647);
      ("128.0.0.0", 3523014639118063932, -2147483648);
      ("203.0.113.9", 2251458589780354410, -889163511);
      ("255.255.255.255", 4611686003901954484, -1);
    ]

(* The data plane's router choice (an integer mix of the AS and the
   destination) pinned for destinations above 128.0.0.0: AS 20 has three
   routers and AS 30 two, and each hop shows the one the mix picks. *)
let test_router_choice_pins () =
  let open Topology in
  let g = As_graph.create () in
  let a = Asn.of_int 10 and b = Asn.of_int 20 and c = Asn.of_int 30 in
  As_graph.add_as g ~routers:1 a;
  As_graph.add_as g ~routers:3 b;
  As_graph.add_as g ~routers:2 c;
  As_graph.add_link g ~a:b ~b:a ~rel:Relationship.Customer;
  As_graph.add_link g ~a:b ~b:c ~rel:Relationship.Customer;
  let engine = Sim.Engine.create () in
  let net = Bgp.Network.create ~engine ~graph:g () in
  Dataplane.Forward.announce_infrastructure net;
  Bgp.Network.announce net ~origin:c ~prefix:(pfx "203.0.113.0/24") ();
  Bgp.Network.run_until_quiet net;
  let failures = Dataplane.Failure.create () in
  let hops i =
    let w = Dataplane.Forward.walk net failures ~src:a ~dst:(Ipv4.add (ip "203.0.113.9") (i * 37)) in
    String.concat " " (List.map (fun (h : Dataplane.Forward.hop) -> Ipv4.to_string h.address) w.hops)
  in
  Alcotest.(check (list string))
    "hop addresses"
    [
      "10.0.10.1 10.0.20.3 10.0.30.1";
      "10.0.10.1 10.0.20.3 10.0.30.2";
      "10.0.10.1 10.0.20.2 10.0.30.1";
      "10.0.10.1 10.0.20.2 10.0.30.1";
      "10.0.10.1 10.0.20.1 10.0.30.2";
      "10.0.10.1 10.0.20.2 10.0.30.1";
      "10.0.10.1 10.0.20.3 10.0.30.2";
    ]
    (List.init 7 hops)

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
    QCheck_alcotest.to_alcotest prop_representation;
    Alcotest.test_case "address hashes pinned" `Quick test_hash_pins;
    Alcotest.test_case "router choice pinned" `Quick test_router_choice_pins;
  ]
