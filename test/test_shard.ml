(* Sharded single-world simulation: the graph partitioner, the barrier
   exchange, and byte-equality across shard counts. *)

open Net
open Topology
open Workloads

(* ------------------------------------------------------------------ *)
(* The partitioner. *)

let gen_318 seed =
  (Topo_gen.generate ~params:Topo_gen.default_params ~seed ()).Topo_gen.graph

let edge_count g =
  List.fold_left (fun acc a -> acc + As_graph.degree g a) 0 (As_graph.as_list g) / 2

let test_partition_deterministic () =
  let g = gen_318 42 in
  let p1 = Partition.compute g ~parts:4 ~seed:7 in
  let p2 = Partition.compute g ~parts:4 ~seed:7 in
  Alcotest.(check int) "same cut" (Partition.cut_edges p1) (Partition.cut_edges p2);
  Alcotest.(check bool)
    "same assignment" true
    (List.equal
       (fun (a1, s1) (a2, s2) -> Asn.equal a1 a2 && s1 = s2)
       (Partition.assignment p1) (Partition.assignment p2));
  let n = As_graph.as_count g in
  let total = Array.init 4 (Partition.size p1) |> Array.fold_left ( + ) 0 in
  Alcotest.(check int) "sizes partition the graph" n total

let test_partition_balanced_and_bounded () =
  let g = gen_318 42 in
  let n = As_graph.as_count g in
  let edges = edge_count g in
  List.iter
    (fun parts ->
      let p = Partition.compute g ~parts ~seed:7 in
      let cap = ((n + parts - 1) / parts) + 2 in
      for i = 0 to parts - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "shard %d/%d within cap (%d <= %d)" i parts (Partition.size p i) cap)
          true
          (Partition.size p i <= cap)
      done;
      (* BFS regions around separated high-degree cores must beat a
         random assignment, whose expected cut is edges * (parts-1)/parts. *)
      let cut = Partition.cut_edges p in
      Alcotest.(check bool)
        (Printf.sprintf "cut bounded at %d parts (%d of %d edges)" parts cut edges)
        true
        (cut * parts < edges * (parts - 1)))
    [ 2; 4; 8 ]

let test_partition_edge_cases () =
  let g = gen_318 42 in
  let n = As_graph.as_count g in
  let p1 = Partition.compute g ~parts:1 ~seed:0 in
  Alcotest.(check int) "one part has no cut" 0 (Partition.cut_edges p1);
  let huge = Partition.compute g ~parts:(10 * n) ~seed:0 in
  Alcotest.(check int) "parts clamp to the AS count" n (Partition.parts huge);
  Alcotest.(check bool)
    "rejects parts < 1" true
    (try
       ignore (Partition.compute g ~parts:0 ~seed:0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Sharded worlds: byte-equality across shard counts. *)

(* A compact but busy run: announce, converge, break a boundary-crossing
   link mid-flight, converge, restore, converge. The fingerprint captures
   every observable the experiments read: message totals, each feed's
   final view, and the full collector timeline. *)
let mux_fingerprint ~shards =
  let mux =
    Scenarios.bgpmux ~ases:80 ~infrastructure:Scenarios.No_infrastructure ~shards ~seed:3 ()
  in
  let bed = mux.Scenarios.bed in
  let net = bed.Scenarios.net in
  Bgp.Network.Collector.clear mux.Scenarios.collector (* start the log *);
  Bgp.Network.announce net ~origin:mux.Scenarios.origin ~prefix:Scenarios.production_prefix ();
  Bgp.Network.run_until_quiet ~timeout:36000.0 net;
  (match mux.Scenarios.providers with
  | p :: _ -> begin
      Bgp.Network.fail_link net ~a:mux.Scenarios.origin ~b:p;
      Bgp.Network.run_until_quiet ~timeout:36000.0 net;
      Bgp.Network.restore_link net ~a:mux.Scenarios.origin ~b:p;
      Bgp.Network.run_until_quiet ~timeout:36000.0 net
    end
  | [] -> ());
  let route_str = function
    | None -> "-"
    | Some e -> Bgp.As_path.to_string e.Bgp.Route.ann.Bgp.Route.path
  in
  let log =
    Bgp.Network.Collector.log mux.Scenarios.collector
    |> List.map (fun r ->
           Printf.sprintf "%.3f %s %s %s" r.Bgp.Network.time
             (Asn.to_string r.Bgp.Network.speaker)
             (Prefix.to_string r.Bgp.Network.prefix)
             (route_str r.Bgp.Network.route))
  in
  let views =
    List.map
      (fun feed ->
        match
          Bgp.Network.Collector.route_view mux.Scenarios.collector ~peer:feed
            ~prefix:Scenarios.production_prefix
        with
        | Some route -> route_str route
        | None -> "no record")
      mux.Scenarios.feeds
  in
  (Bgp.Network.message_count net, views, log)

let check_fingerprint_equal label (m1, v1, l1) (m2, v2, l2) =
  Alcotest.(check int) (label ^ ": message count") m1 m2;
  Alcotest.(check (list string)) (label ^ ": feed views") v1 v2;
  Alcotest.(check (list string)) (label ^ ": collector log") l1 l2

let test_shard_count_invariance () =
  let k1 = mux_fingerprint ~shards:1 in
  let k2 = mux_fingerprint ~shards:2 in
  let k4 = mux_fingerprint ~shards:4 in
  check_fingerprint_equal "shards 1 vs 2" k1 k2;
  check_fingerprint_equal "shards 1 vs 4" k1 k4;
  let _, _, log = k1 in
  Alcotest.(check bool) "the run did something" true (List.length log > 10)

(* ------------------------------------------------------------------ *)
(* Barrier exchange: the 2-shard golden run. *)

let test_barrier_exchange_golden () =
  let mux =
    Scenarios.bgpmux ~ases:80 ~infrastructure:Scenarios.No_infrastructure ~shards:2
      ~record_barriers:true ~seed:3 ()
  in
  let bed = mux.Scenarios.bed in
  let net = bed.Scenarios.net in
  Bgp.Network.announce net ~origin:mux.Scenarios.origin ~prefix:Scenarios.production_prefix ();
  Bgp.Network.run_until_quiet ~timeout:36000.0 net;
  let history = Bgp.Network.barrier_history net in
  let barriers = List.length history in
  let injected = List.fold_left (fun acc (_, i, _) -> acc + i) 0 history in
  let cut_injected = List.fold_left (fun acc (_, _, c) -> acc + c) 0 history in
  Alcotest.(check int) "barrier count" (Bgp.Network.barrier_count net) barriers;
  Alcotest.(check int)
    "every delivery crossed the barrier" (Bgp.Network.message_count net) injected;
  Alcotest.(check int) "cut messages" (Bgp.Network.cut_message_count net) cut_injected;
  Alcotest.(check bool)
    (Printf.sprintf "cut messages flowed (%d of %d)" cut_injected injected)
    true
    (cut_injected > 0 && cut_injected < injected);
  (* Golden pin: convergence of one announcement over the seed-3 80-AS
     world at 2 shards. Any change to partitioning, window placement or
     canonical ordering shows up here first. *)
  Alcotest.(check int) "golden: barriers" 79 barriers;
  Alcotest.(check int) "golden: messages" 214 injected;
  Alcotest.(check int) "golden: cut messages" 68 cut_injected;
  (* Windows start at or after the previous window's start, and nothing
     is injected before the frontier it was due at. *)
  let rec monotone = function
    | (t1, _, _) :: ((t2, _, _) :: _ as rest) -> t1 <= t2 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "window starts are monotone" true (monotone history)

let suite =
  [
    Alcotest.test_case "partitioner is deterministic" `Quick test_partition_deterministic;
    Alcotest.test_case "partitions balance and bound the cut" `Quick
      test_partition_balanced_and_bounded;
    Alcotest.test_case "partitioner edge cases" `Quick test_partition_edge_cases;
    Alcotest.test_case "shard count never changes results" `Quick test_shard_count_invariance;
    Alcotest.test_case "2-shard barrier exchange golden run" `Quick
      test_barrier_exchange_golden;
  ]
