(* A path-uncompressed binary trie over address bits. Prefix lengths are at
   most 32, and the routing tables in this reproduction hold at most a few
   thousand prefixes, so the simple representation is plenty fast and easy
   to verify. *)

type 'a t = Leaf | Node of { value : 'a option; zero : 'a t; one : 'a t }

let empty = Leaf

let node value zero one =
  match (value, zero, one) with
  | None, Leaf, Leaf -> Leaf
  | _ -> Node { value; zero; one }

let bit_at addr i =
  (* Bit [i] counting from the most significant (i = 0 is the /1 bit). *)
  Int32.logand (Int32.shift_right_logical (Ipv4.to_int32 addr) (31 - i)) 1l = 1l

let add prefix v t =
  let addr = Prefix.network prefix and len = Prefix.length prefix in
  let rec go t depth =
    match t with
    | Leaf ->
        if depth = len then node (Some v) Leaf Leaf
        else if bit_at addr depth then node None Leaf (go Leaf (depth + 1))
        else node None (go Leaf (depth + 1)) Leaf
    | Node { value; zero; one } ->
        if depth = len then node (Some v) zero one
        else if bit_at addr depth then node value zero (go one (depth + 1))
        else node value (go zero (depth + 1)) one
  in
  go t 0

let remove prefix t =
  let addr = Prefix.network prefix and len = Prefix.length prefix in
  let rec go t depth =
    match t with
    | Leaf -> Leaf
    | Node { value; zero; one } ->
        if depth = len then node None zero one
        else if bit_at addr depth then node value zero (go one (depth + 1))
        else node value (go zero (depth + 1)) one
  in
  go t 0

let lookup ip t =
  (* Walk down following the address bits, remembering the deepest value. *)
  let rec go t depth best =
    match t with
    | Leaf -> best
    | Node { value; zero; one } ->
        let best =
          match value with
          | Some v -> Some (Prefix.make ip depth, v)
          | None -> best
        in
        if depth >= 32 then best
        else if bit_at ip depth then go one (depth + 1) best
        else go zero (depth + 1) best
  in
  go t 0 None

(* [lookup] without the matched prefix: the deepest [value] option met on
   the way down is returned as is, and the loop is a top-level function
   rather than a closure over [ip], so nothing is allocated. *)
let rec find_longest_from ip t depth best =
  match t with
  | Leaf -> best
  | Node { value; zero; one } ->
      let best = match value with Some _ -> value | None -> best in
      if depth >= 32 then best
      else if bit_at ip depth then find_longest_from ip one (depth + 1) best
      else find_longest_from ip zero (depth + 1) best

let find_longest ip t = find_longest_from ip t 0 None

let fold f t acc =
  let rec go t depth addr acc =
    match t with
    | Leaf -> acc
    | Node { value; zero; one } ->
        let acc =
          match value with
          | Some v -> f (Prefix.make (Ipv4.of_int32 addr) depth) v acc
          | None -> acc
        in
        let acc = go zero (depth + 1) addr acc in
        let one_addr = Int32.logor addr (Int32.shift_left 1l (31 - depth)) in
        go one (depth + 1) one_addr acc
  in
  go t 0 0l acc

let cardinal t = fold (fun _ _ acc -> acc + 1) t 0
