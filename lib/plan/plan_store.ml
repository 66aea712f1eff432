open Net

type remedy =
  | Poison of { path : Bgp.As_path.t }
  | Selective_poison of { path : Bgp.As_path.t; via : Asn.t list }
  | Alternate_path
  | Hopeless of string

let feasible = function
  | Poison _ | Selective_poison _ | Alternate_path -> true
  | Hopeless _ -> false

let poisons = function
  | Poison _ | Selective_poison _ -> true
  | Alternate_path | Hopeless _ -> false

module Key = struct
  type t = Asn.t * Failure_class.t

  let compare (ta, ca) (tb, cb) =
    let c = Asn.compare ta tb in
    if c <> 0 then c else Failure_class.compare ca cb
end

module M = Map.Make (Key)

type t = remedy M.t

let empty = M.empty
let add t ~target ~cls remedy = M.add (target, cls) remedy t
let find t ~target ~cls = M.find_opt (target, cls) t
let cardinal = M.cardinal
let filter f t = M.filter (fun (target, cls) remedy -> f ~target ~cls remedy) t
