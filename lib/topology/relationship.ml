type t = Customer | Provider | Peer

let invert = function
  | Customer -> Provider
  | Provider -> Customer
  | Peer -> Peer

let equal a b =
  match (a, b) with
  | Customer, Customer | Provider, Provider | Peer, Peer -> true
  | (Customer | Provider | Peer), _ -> false

let to_string = function
  | Customer -> "customer"
  | Provider -> "provider"
  | Peer -> "peer"

let pp fmt t = Format.pp_print_string fmt (to_string t)

let local_pref = function
  | Customer -> 300
  | Peer -> 200
  | Provider -> 100

let export_ok ~learned_from ~to_ =
  match learned_from with
  | Customer -> true
  | Peer | Provider -> begin
      match to_ with
      | Customer -> true
      | Peer | Provider -> false
    end
