open Net

(* A path is an immutable nearest-first array of ASNs plus two cached
   integers: a salted structural hash (always valid) and an interner id
   ([-1] until a [Path_store] adopts the node). Constructors build
   uninterned nodes; stores stamp ids via [Internal.with_id]. Ids are
   world-local, so [equal] never trusts them across values — it relies on
   physical sharing (interned values of one world) and on the cached hash
   to stay O(1) in practice. *)
type t = { id : int; hash : int; asns : Asn.t array }

(* Fixed salt: deterministic across worlds (byte-identical tables at any
   [--jobs]) while decorrelating the path hash from the raw ASN values. *)
let salt = 0x42_D6_E7_2D

let mix h x =
  let h = (h lxor (x * 0x9E3779B1)) * 0x85EBCA6B in
  h lxor (h lsr 15)

let hash_asns asns =
  let h = ref (mix salt (Array.length asns)) in
  Array.iter (fun a -> h := mix !h (Asn.to_int a)) asns;
  !h land max_int

let of_array asns = { id = -1; hash = hash_asns asns; asns }
let of_list l = of_array (Array.of_list l)
let to_list t = Array.to_list t.asns
let empty = of_array [||]
let is_empty t = Array.length t.asns = 0
let length t = Array.length t.asns
let hash t = t.hash

let origin t =
  let n = Array.length t.asns in
  if n = 0 then None else Some t.asns.(n - 1)

let first_hop t = if Array.length t.asns = 0 then None else Some t.asns.(0)

let prepend asn t =
  let n = Array.length t.asns in
  let asns = Array.make (n + 1) asn in
  Array.blit t.asns 0 asns 1 n;
  of_array asns

let exists f t = Array.exists f t.asns
let fold f init t = Array.fold_left f init t.asns
let contains asn t = Array.exists (Asn.equal asn) t.asns

(* A plain loop: [Policy.import] counts on every received announcement. *)
let count asn t =
  let n = ref 0 in
  for i = 0 to Array.length t.asns - 1 do
    if Asn.equal asn t.asns.(i) then incr n
  done;
  !n

let traversed ~origin t =
  let n = Array.length t.asns in
  let rec cut i = if i >= n || Asn.equal t.asns.(i) origin then i else cut (i + 1) in
  of_array (Array.sub t.asns 0 (cut 0))

let traverses ~origin ~target t = contains target (traversed ~origin t)
let plain ~origin = of_array [| origin |]

let prepended ~origin ~copies =
  if copies < 1 then invalid_arg "As_path.prepended: need at least one copy";
  of_array (Array.make copies origin)

let poisoned ~origin ~poison =
  if Asn.equal origin poison then invalid_arg "As_path.poisoned: cannot poison the origin";
  of_array [| origin; poison; origin |]

let poisoned_multi ~origin ~poisons =
  if List.exists (Asn.equal origin) poisons then
    invalid_arg "As_path.poisoned_multi: cannot poison the origin";
  match poisons with
  | [] -> invalid_arg "As_path.poisoned_multi: empty poison list"
  | _ :: _ -> of_list ((origin :: poisons) @ [ origin ])

let structural_equal a b =
  Array.length a.asns = Array.length b.asns
  && (let n = Array.length a.asns in
      let rec go i = i >= n || (Asn.equal a.asns.(i) b.asns.(i) && go (i + 1)) in
      go 0)

(* Interned values of one world are physically shared, so the common case
   is the [==] hit; unequal values differ in the cached hash with high
   probability. The structural walk only runs on a hash collision or when
   comparing uninterned/cross-world values that happen to be equal. *)
let equal a b = a == b || (a.hash = b.hash && structural_equal a b)

let to_string t =
  String.concat " " (List.map (fun a -> string_of_int (Asn.to_int a)) (to_list t))

let pp fmt t = Format.pp_print_string fmt (to_string t)

module Internal = struct
  let id t = t.id
  let with_id t id = { t with id }
end
