open Net
open Topology

type hop = { asn : Asn.t; address : Ipv4.t }

type outcome =
  | Delivered
  | No_route of Asn.t
  | Loop
  | Dropped of { at : Asn.t; by : Failure.spec }

type walk = { hops : hop list; outcome : outcome }

(* The border router of [asn] that answers for a given flow: picked by a
   fixed integer mix of (asn, destination) so multi-router ASes expose
   several addresses in traces, deterministically per destination. The
   mix is explicit arithmetic rather than the polymorphic [Hashtbl.hash]
   so the choice cannot drift with the runtime's generic hash. *)
let responding_router graph asn ~dst =
  let routers = As_graph.routers graph asn in
  let n = Array.length routers in
  let i =
    if n = 1 then 0
    else begin
      let z = (Asn.to_int asn * 0x9E3779B1) lxor (Ipv4.signed dst * 0x85EBCA6B) in
      let z = z lxor (z lsr 16) in
      (z land max_int) mod n
    end
  in
  routers.(i).As_graph.address

let max_hops = 64

(* One forwarding decision, shared by [walk] and [delivers] so the two
   cannot drift apart: at [current], the FIB entry picks the next AS, and
   an entry naming [current] itself (a local origination) means the
   packet has arrived; otherwise it either loops back to an AS [seen]
   already, is dropped by a failure on the hop, or moves on. *)
type step = Arrive | Halt of outcome | Hop of Asn.t

let next_hop net failures ~seen ~dst current =
  match Bgp.Network.fib_find net current dst with
  | None -> Halt (No_route current)
  | Some { Bgp.Route.neighbor = next; _ } ->
      if Asn.equal next current then Arrive
      else if seen next then Halt Loop
      else begin
        match Failure.blocks_hop failures ~from_:current ~to_:next ~dst with
        | Some by -> Halt (Dropped { at = next; by })
        | None -> Hop next
      end

let walk net failures ~src ~dst =
  let graph = Bgp.Network.graph net in
  let hop_of asn = { asn; address = responding_router graph asn ~dst } in
  match Failure.blocks_source failures src ~dst with
  | Some by -> { hops = [ hop_of src ]; outcome = Dropped { at = src; by } }
  | None ->
      let rec go current visited hops_rev steps =
        if steps > max_hops then { hops = List.rev hops_rev; outcome = Loop }
        else
          match next_hop net failures ~seen:(fun a -> Asn.Set.mem a visited) ~dst current with
          | Arrive -> { hops = List.rev hops_rev; outcome = Delivered }
          | Halt (Dropped { at; _ } as outcome) ->
              (* The hop that dropped the packet still appears. *)
              { hops = List.rev (hop_of at :: hops_rev); outcome }
          | Halt outcome -> { hops = List.rev hops_rev; outcome }
          | Hop next -> go next (Asn.Set.add next visited) (hop_of next :: hops_rev) (steps + 1)
      in
      go src (Asn.Set.singleton src) [ hop_of src ] 0

(* The verdict walk keeps no visited set: forwarding at an AS depends
   only on that AS (and [dst]), so a packet that revisits an AS circles
   forever and the hop bound ends it with [walk]'s verdict. *)
let unseen _ = false

let rec delivers_from net failures ~dst current steps =
  steps <= max_hops
  &&
  match next_hop net failures ~seen:unseen ~dst current with
  | Arrive -> true
  | Halt _ -> false
  | Hop next -> delivers_from net failures ~dst next (steps + 1)

let delivers net failures ~src ~dst =
  match Failure.blocks_source failures src ~dst with
  | Some _ -> false
  | None -> delivers_from net failures ~dst src 0

let as_path_of_walk w =
  let rec dedup = function
    | a :: (b :: _ as rest) -> if Asn.equal a.asn b.asn then dedup rest else a.asn :: dedup rest
    | [ a ] -> [ a.asn ]
    | [] -> []
  in
  dedup w.hops

let infrastructure_prefix asn =
  let n = Asn.to_int asn in
  if n > 0xFFFF then invalid_arg "Forward.infrastructure_prefix: ASN too large";
  Prefix.make (Ipv4.of_octets 10 ((n lsr 8) land 0xFF) (n land 0xFF) 0) 24

let announce_infrastructure_for net ases =
  List.iter
    (fun asn -> Bgp.Network.announce net ~origin:asn ~prefix:(infrastructure_prefix asn) ())
    ases

let announce_infrastructure net =
  announce_infrastructure_for net (As_graph.as_list (Bgp.Network.graph net))

let probe_address net asn = As_graph.router_address (Bgp.Network.graph net) asn 0
