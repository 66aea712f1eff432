open Net

type router = { asn : Asn.t; index : int; address : Ipv4.t }

(* One adjacency representation: each AS's neighbours in ascending ASN
   order, as two parallel arrays — the neighbour's dense id and what the
   neighbour is to this AS. Lookups binary-search them; the valley-free
   search walks them by id without touching a table. Both arrays are
   replaced, not resized, by [add_link], so their length is the degree. *)
type node = {
  asn : Asn.t;
  id : int;
  tier : int;
  routers : router array;
  mutable nbr : int array;
  mutable rel : Relationship.t array;
}

(* [by_id.(i)] is the node with dense id [i], for [i < as_count]; ids are
   handed out by [add_as] in order, and slots past the count repeat a
   node only as filler. *)
type t = {
  nodes : node Asn.Table.t;
  mutable by_id : node array;
  mutable links : int;
  address_owner : Asn.t Ipv4.Table.t;
}

let create () =
  { nodes = Asn.Table.create 256; by_id = [||]; links = 0; address_owner = Ipv4.Table.create 256 }

(* Router addresses live in 10.0.0.0/8, carved by ASN: router [i] of ASN
   [n] is 10.(n lsr 8).(n land 255).(i + 1). This supports ASNs < 65536 and
   up to 254 routers per AS, far beyond what experiments use. *)
let derive_address asn index =
  let n = Asn.to_int asn in
  if n > 0xFFFF then invalid_arg "As_graph: ASN too large for address derivation";
  if index > 253 then invalid_arg "As_graph: too many routers";
  Ipv4.of_octets 10 ((n lsr 8) land 0xFF) (n land 0xFF) (index + 1)

let add_as t ?(tier = 3) ?(routers = 1) asn =
  if Asn.Table.mem t.nodes asn then
    invalid_arg (Printf.sprintf "As_graph.add_as: %s already present" (Asn.to_string asn));
  if routers < 1 then invalid_arg "As_graph.add_as: need at least one router";
  let mk index =
    let address = derive_address asn index in
    Ipv4.Table.replace t.address_owner address asn;
    { asn; index; address }
  in
  let id = Asn.Table.length t.nodes in
  let n = { asn; id; tier; routers = Array.init routers mk; nbr = [||]; rel = [||] } in
  if id = Array.length t.by_id then begin
    let by_id = Array.make (max 16 (2 * id)) n in
    Array.blit t.by_id 0 by_id 0 id;
    t.by_id <- by_id
  end
  else t.by_id.(id) <- n;
  Asn.Table.replace t.nodes asn n

let node t asn =
  match Asn.Table.find_opt t.nodes asn with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "As_graph: unknown %s" (Asn.to_string asn))

let mem t asn = Asn.Table.mem t.nodes asn

(* The position of [asn] among [n]'s neighbours, or [-(i + 1)] when it is
   not one and [i] is where it would go. *)
let rec bsearch t nbr key lo hi =
  if lo >= hi then -(lo + 1)
  else
    let mid = (lo + hi) lsr 1 in
    let c = Int.compare (Asn.to_int t.by_id.(nbr.(mid)).asn) key in
    if c = 0 then mid
    else if c < 0 then bsearch t nbr key (mid + 1) hi
    else bsearch t nbr key lo mid

let slot t n asn = bsearch t n.nbr (Asn.to_int asn) 0 (Array.length n.nbr)

let insert arr i x =
  let len = Array.length arr in
  let a = Array.make (len + 1) x in
  Array.blit arr 0 a 0 i;
  Array.blit arr i a (i + 1) (len - i);
  a

(* Put [other] at [n]'s free slot [-(i + 1)], as [slot] returned it. *)
let attach n i other rel =
  n.nbr <- insert n.nbr (-(i + 1)) other.id;
  n.rel <- insert n.rel (-(i + 1)) rel

let add_link t ~a ~b ~rel =
  if Asn.equal a b then invalid_arg "As_graph.add_link: self link";
  let na = node t a and nb = node t b in
  let i = slot t na b in
  if i >= 0 then
    invalid_arg
      (Printf.sprintf "As_graph.add_link: %s-%s already linked" (Asn.to_string a)
         (Asn.to_string b));
  attach na i nb rel;
  attach nb (slot t nb a) na (Relationship.invert rel);
  t.links <- t.links + 1

let relationship t ~a ~b =
  match Asn.Table.find_opt t.nodes a with
  | None -> None
  | Some na ->
      let i = slot t na b in
      if i < 0 then None else Some na.rel.(i)

let neighbors t asn =
  let n = node t asn in
  List.init (Array.length n.nbr) (fun i -> (t.by_id.(n.nbr.(i)).asn, n.rel.(i)))

let id t asn = (node t asn).id
let asn_of_id t i = t.by_id.(i).asn
let neighbor_ids t i = t.by_id.(i).nbr
let neighbor_rels t i = t.by_id.(i).rel

(* lint: allow LG-DEAD-EXPORT (oracle: test_topology.ml's generator digests) *)
let tier t asn = (node t asn).tier
let routers t asn = (node t asn).routers

let router_address t asn i =
  let rs = routers t asn in
  if i < 0 || i >= Array.length rs then invalid_arg "As_graph.router_address: index";
  rs.(i).address

let owner_of_address t ip = Ipv4.Table.find_opt t.address_owner ip

let as_list t =
  Asn.Table.fold (fun asn _ acc -> asn :: acc) t.nodes []
  |> List.sort Asn.compare

let as_count t = Asn.Table.length t.nodes
let degree t asn = Array.length (node t asn).nbr

let pp_stats fmt t =
  let tiers = Hashtbl.create 8 in
  Asn.Table.iter
    (fun _ n ->
      let c = Option.value ~default:0 (Hashtbl.find_opt tiers n.tier) in
      Hashtbl.replace tiers n.tier (c + 1))
    t.nodes;
  let tier_list =
    Hashtbl.fold (fun tier c acc -> (tier, c) :: acc) tiers []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  Format.fprintf fmt "%d ASes, %d links (%s)" (as_count t) t.links
    (String.concat ", "
       (List.map (fun (tier, c) -> Printf.sprintf "tier%d: %d" tier c) tier_list))
