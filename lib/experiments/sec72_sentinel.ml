open Net
open Topology

type variant = Covering_less_specific | Disjoint_unused | No_sentinel | Dns_redirection

let variant_name = function
  | Covering_less_specific -> "covering less-specific (deployed)"
  | Disjoint_unused -> "disjoint unused prefix"
  | No_sentinel -> "no sentinel"
  | Dns_redirection -> "DNS redirection (second production prefix)"

type row = { variant : variant; captive_has_route : bool; repair_detectable : bool }

type result = { rows : row list }

let production = Prefix.of_string_exn "203.0.113.0/24"
let covering = Prefix.of_string_exn "203.0.112.0/23"
let disjoint = Prefix.of_string_exn "198.51.100.0/24"

let second_production = Prefix.of_string_exn "198.51.100.0/24"
(* For DNS redirection the "sentinel" is simply another production prefix
   serving the same service from the same routes; clients affected by the
   poisoned P1 are steered to P2 by the resolver, and reachability of P2
   through the poisoned AS doubles as the repair signal (paper checked
   Google's routing satisfies the consistent-path assumption). *)

(* Fig. 2 world: O--B--{A,C}; C--D--E; E--A; F--A (captive). *)
let build () =
  let asn = Asn.of_int in
  let g = As_graph.create () in
  let o = asn 10 and b = asn 20 and a = asn 30 and c = asn 40 in
  let d = asn 50 and e = asn 60 and f = asn 70 in
  List.iter (fun x -> As_graph.add_as g x) [ o; b; a; c; d; e; f ];
  As_graph.add_link g ~a:o ~b ~rel:Relationship.Provider;
  As_graph.add_link g ~a:b ~b:a ~rel:Relationship.Provider;
  As_graph.add_link g ~a:b ~b:c ~rel:Relationship.Provider;
  As_graph.add_link g ~a:c ~b:d ~rel:Relationship.Provider;
  As_graph.add_link g ~a:e ~b:d ~rel:Relationship.Provider;
  As_graph.add_link g ~a:e ~b:a ~rel:Relationship.Provider;
  As_graph.add_link g ~a:f ~b:a ~rel:Relationship.Provider;
  let engine = Sim.Engine.create () in
  let net = Bgp.Network.create ~engine ~graph:g ~mrai:5.0 () in
  let failures = Dataplane.Failure.create () in
  let probe = Dataplane.Probe.env net failures in
  Dataplane.Forward.announce_infrastructure net;
  Bgp.Network.run_until_quiet net;
  (net, failures, probe, (o, a, e, f))

let try_variant variant =
  let net, failures, probe, (o, a, e, f) = build () in
  (* Announce per variant, then poison A during its (silent) failure.
     The failure affects all of O's announced space, so one spec per
     announced prefix. *)
  let failure_scopes =
    match variant with
    | Covering_less_specific -> [ covering ]
    | Disjoint_unused -> [ production; disjoint ]
    | No_sentinel -> [ production ]
    | Dns_redirection -> [ production; second_production ]
  in
  (match variant with
  | Covering_less_specific -> Bgp.Network.announce net ~origin:o ~prefix:covering ()
  | Disjoint_unused -> Bgp.Network.announce net ~origin:o ~prefix:disjoint ()
  | No_sentinel -> ()
  | Dns_redirection -> Bgp.Network.announce net ~origin:o ~prefix:second_production ());
  Bgp.Network.announce net ~origin:o ~prefix:production
    ~per_neighbor:(fun _ -> Some (Bgp.As_path.prepended ~origin:o ~copies:3))
    ();
  Bgp.Network.run_until_quiet net;
  let specs =
    List.map
      (fun toward -> Dataplane.Failure.spec ~toward (Dataplane.Failure.Node a))
      failure_scopes
  in
  List.iter (Dataplane.Failure.add failures) specs;
  Bgp.Network.announce net ~origin:o ~prefix:production
    ~per_neighbor:(fun _ -> Some (Bgp.As_path.poisoned ~origin:o ~poison:a))
    ();
  Bgp.Network.run_until_quiet net;
  let captive_has_route =
    match variant with
    | Dns_redirection ->
        (* The captive's service continuity comes from the resolver
           steering it to the unpoisoned second prefix. *)
        Option.is_some (Bgp.Network.fib_find net f (Prefix.nth_address second_production 9))
    | Covering_less_specific | Disjoint_unused | No_sentinel ->
        Option.is_some (Bgp.Network.fib_find net f (Prefix.nth_address production 9))
  in
  (* Repair detection: the probe source whose replies can traverse A
     while the production prefix is poisoned. *)
  let detection_source =
    match variant with
    | Covering_less_specific -> Some (Prefix.first_address covering)
    | Disjoint_unused -> Some (Prefix.first_address disjoint)
    | No_sentinel -> None
    | Dns_redirection -> Some (Prefix.nth_address second_production 1)
  in
  let detect () =
    match detection_source with
    | None -> false
    | Some src_ip ->
        Dataplane.Probe.ping_from probe ~src:o ~src_ip
          ~dst:(Dataplane.Forward.probe_address net e)
  in
  let detects_during_failure = detect () in
  List.iter (Dataplane.Failure.remove failures) specs;
  let detects_after_heal = detect () in
  {
    variant;
    captive_has_route;
    (* Detectable = silent while broken, positive once healed. *)
    repair_detectable = (not detects_during_failure) && detects_after_heal;
  }

let run () =
  {
    rows =
      List.map try_variant
        [ Covering_less_specific; Disjoint_unused; No_sentinel; Dns_redirection ];
  }

let to_tables r =
  let t =
    Stats.Table.create ~title:"Sec 7.2 sentinel variants"
      ~columns:[ "variant"; "captive keeps a route"; "repair detectable" ]
  in
  List.iter
    (fun row ->
      Stats.Table.add_row t
        [
          variant_name row.variant;
          (if row.captive_has_route then "yes" else "no");
          (if row.repair_detectable then "yes" else "no");
        ])
    r.rows;
  [ t ]
