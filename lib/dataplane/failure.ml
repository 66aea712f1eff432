open Net

type scope = Node of Asn.t | Link of Asn.t * Asn.t | Link_dir of Asn.t * Asn.t
type mode = Data_only | Control_and_data
type spec = { scope : scope; mode : mode; toward : Prefix.t option }

let spec ?(mode = Data_only) ?toward scope = { scope; mode; toward }

let scope_equal a b =
  match (a, b) with
  | Node x, Node y -> Asn.equal x y
  | Link (x1, x2), Link (y1, y2) ->
      (Asn.equal x1 y1 && Asn.equal x2 y2) || (Asn.equal x1 y2 && Asn.equal x2 y1)
  | Link_dir (x1, x2), Link_dir (y1, y2) -> Asn.equal x1 y1 && Asn.equal x2 y2
  | (Node _ | Link _ | Link_dir _), _ -> false

let spec_equal a b =
  scope_equal a.scope b.scope && a.mode = b.mode && Option.equal Prefix.equal a.toward b.toward

(* [version] moves on every write, so a reader holding a verdict derived
   from the set can tell in one comparison whether it may still hold. *)
type set = { mutable specs : spec list; mutable version : int }

let create () = { specs = []; version = 0 }
(* lint: allow LG-DEAD-EXPORT (seam: test_dataplane.ml's scripts heal a live failure) *)
let active t = t.specs
let version t = t.version

let write t specs =
  t.specs <- specs;
  t.version <- t.version + 1

let add t spec = write t (spec :: t.specs)
let remove t spec = write t (List.filter (fun s -> not (spec_equal s spec)) t.specs)

let toward_matches spec dst =
  match spec.toward with
  | None -> true
  | Some p -> Prefix.mem dst p

(* Both matchers run once per forwarding hop, so they are plain
   recursions rather than [List.find_opt] with a closure: no allocation
   unless a failure matches. *)
let rec blocks_hop_in specs ~from_ ~to_ ~dst =
  match specs with
  | [] -> None
  | spec :: rest ->
      if
        toward_matches spec dst
        &&
        match spec.scope with
        | Node a -> Asn.equal a to_
        | Link (a, b) ->
            (Asn.equal a from_ && Asn.equal b to_) || (Asn.equal a to_ && Asn.equal b from_)
        | Link_dir (a, b) -> Asn.equal a from_ && Asn.equal b to_
      then Some spec
      else blocks_hop_in rest ~from_ ~to_ ~dst

let blocks_hop t ~from_ ~to_ ~dst = blocks_hop_in t.specs ~from_ ~to_ ~dst

let rec blocks_source_in specs asn ~dst =
  match specs with
  | [] -> None
  | spec :: rest ->
      if
        toward_matches spec dst
        &&
        match spec.scope with
        | Node a -> Asn.equal a asn
        | Link _ | Link_dir _ -> false
      then Some spec
      else blocks_source_in rest asn ~dst

let blocks_source t asn ~dst = blocks_source_in t.specs asn ~dst

let control_action f net spec =
  match spec.scope with
  | Node a -> f net (`Node a)
  | Link (a, b) | Link_dir (a, b) -> f net (`Link (a, b))

let inject net set spec =
  add set spec;
  match spec.mode with
  | Data_only -> ()
  | Control_and_data ->
      control_action
        (fun net -> function
          | `Node a -> Bgp.Network.fail_node net a
          | `Link (a, b) -> Bgp.Network.fail_link net ~a ~b)
        net spec

let heal net set spec =
  remove set spec;
  match spec.mode with
  | Data_only -> ()
  | Control_and_data ->
      control_action
        (fun net -> function
          | `Node a -> Bgp.Network.restore_node net a
          | `Link (a, b) -> Bgp.Network.restore_link net ~a ~b)
        net spec
