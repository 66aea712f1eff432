open Net

type router = { asn : Asn.t; index : int; address : Ipv4.t }

(* [degree] caches [Asn.Map.cardinal adj], which is O(degree): the
   generator's preferential attachment reads every pool member's degree
   on every pick. [add_link]/[remove_link] keep it in step. *)
type node = {
  tier : int;
  routers : router array;
  mutable adj : Relationship.t Asn.Map.t;
  mutable degree : int;
}

type t = {
  nodes : node Asn.Table.t;
  mutable links : int;
  address_owner : Asn.t Ipv4.Table.t;
}

let create () = { nodes = Asn.Table.create 256; links = 0; address_owner = Ipv4.Table.create 256 }

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
  Asn.Table.replace t.nodes asn
    { tier; routers = Array.init routers mk; adj = Asn.Map.empty; degree = 0 }

let node t asn =
  match Asn.Table.find_opt t.nodes asn with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "As_graph: unknown %s" (Asn.to_string asn))

let mem t asn = Asn.Table.mem t.nodes asn

let add_link t ~a ~b ~rel =
  if Asn.equal a b then invalid_arg "As_graph.add_link: self link";
  let na = node t a and nb = node t b in
  if Asn.Map.mem b na.adj then
    invalid_arg
      (Printf.sprintf "As_graph.add_link: %s-%s already linked" (Asn.to_string a)
         (Asn.to_string b));
  na.adj <- Asn.Map.add b rel na.adj;
  nb.adj <- Asn.Map.add a (Relationship.invert rel) nb.adj;
  na.degree <- na.degree + 1;
  nb.degree <- nb.degree + 1;
  t.links <- t.links + 1

let remove_link t ~a ~b =
  let na = node t a and nb = node t b in
  if Asn.Map.mem b na.adj then begin
    na.adj <- Asn.Map.remove b na.adj;
    nb.adj <- Asn.Map.remove a nb.adj;
    na.degree <- na.degree - 1;
    nb.degree <- nb.degree - 1;
    t.links <- t.links - 1
  end

let relationship t ~a ~b =
  match Asn.Table.find_opt t.nodes a with
  | None -> None
  | Some na -> Asn.Map.find_opt b na.adj

let neighbors t asn =
  Asn.Map.fold (fun n rel acc -> (n, rel) :: acc) (node t asn).adj []
  |> List.rev

let iter_neighbors t asn f = Asn.Map.iter f (node t asn).adj

let neighbors_where t asn keep =
  List.filter_map (fun (n, rel) -> if keep rel then Some n else None) (neighbors t asn)

let customers t asn = neighbors_where t asn (Relationship.equal Relationship.Customer)
let providers t asn = neighbors_where t asn (Relationship.equal Relationship.Provider)
let peers t asn = neighbors_where t asn (Relationship.equal Relationship.Peer)

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
let link_count t = t.links
let degree t asn = (node t asn).degree

let is_stub t asn =
  not (Asn.Map.exists (fun _ rel -> Relationship.equal rel Relationship.Customer) (node t asn).adj)

let copy t =
  let nodes = Asn.Table.create (Asn.Table.length t.nodes) in
  Asn.Table.iter
    (fun asn n -> Asn.Table.replace nodes asn { n with routers = Array.copy n.routers })
    t.nodes;
  { nodes; links = t.links; address_owner = Ipv4.Table.copy t.address_owner }

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
