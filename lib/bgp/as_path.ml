open Net

(* A path is one immutable int array: index 0 holds its salted
   structural hash, computed once at construction, and indices 1.. the
   ASNs, nearest first. One block per path, no record around it. [equal]
   relies on physical sharing (a receiver keeps the sender's export by
   pointer) and on the cached hash to stay O(1) in practice. *)
type t = int array

(* Fixed salt: deterministic across worlds (byte-identical tables at any
   [--jobs]) while decorrelating the path hash from the raw ASN values. *)
let salt = 0x42_D6_E7_2D

let mix h x =
  let h = (h lxor (x * 0x9E3779B1)) * 0x85EBCA6B in
  h lxor (h lsr 15)

(* Fill in the hash of the ASNs at indices 1.. and return the path. *)
let seal a =
  let h = ref (mix salt (Array.length a - 1)) in
  for i = 1 to Array.length a - 1 do
    h := mix !h a.(i)
  done;
  a.(0) <- !h land max_int;
  a

let of_list l = seal (Array.of_list (0 :: List.map Asn.to_int l))
let empty = seal [| 0 |]
let is_empty t = Array.length t = 1
let length t = Array.length t - 1

(* lint: allow LG-DEAD-EXPORT (seam: test_bgp_more.ml pins path hashes) *)
let hash t = t.(0)

let first_hop t = if Array.length t = 1 then None else Some (Asn.of_int t.(1))

let to_list t =
  let rec from i acc = if i = 0 then acc else from (i - 1) (Asn.of_int t.(i) :: acc) in
  from (Array.length t - 1) []

let prepend asn t =
  let n = Array.length t in
  let a = Array.make (n + 1) (Asn.to_int asn) in
  Array.blit t 1 a 2 (n - 1);
  seal a

(* The walks below are top-level, so they build no closure. *)
let rec exists_from f t i = i < Array.length t && (f (Asn.of_int t.(i)) || exists_from f t (i + 1))
let exists f t = exists_from f t 1

let fold f init t =
  let acc = ref init in
  for i = 1 to Array.length t - 1 do
    acc := f !acc (Asn.of_int t.(i))
  done;
  !acc

(* Plain loops over the ints: [Policy.import] counts on every received
   announcement. *)
let count asn t =
  let a = Asn.to_int asn and n = ref 0 in
  for i = 1 to Array.length t - 1 do
    if t.(i) = a then incr n
  done;
  !n

(* Whether [a] is at an index in [i, k). *)
let rec mem_from (t : t) a i k = i < k && (t.(i) = a || mem_from t a (i + 1) k)
let contains asn t = mem_from t (Asn.to_int asn) 1 (Array.length t)

(* The index of the first [origin], or the end: what precedes it is the
   part of the path that traffic crosses. *)
let rec cut (t : t) origin i = if i >= Array.length t || t.(i) = origin then i else cut t origin (i + 1)

let traverses ~origin ~target t =
  mem_from t (Asn.to_int target) 1 (cut t (Asn.to_int origin) 1)

let plain ~origin = seal [| 0; Asn.to_int origin |]

let prepended ~origin ~copies =
  if copies < 1 then invalid_arg "As_path.prepended: need at least one copy";
  seal (Array.make (copies + 1) (Asn.to_int origin))

let poisoned ~origin ~poison =
  if Asn.equal origin poison then invalid_arg "As_path.poisoned: cannot poison the origin";
  let o = Asn.to_int origin in
  seal [| 0; o; Asn.to_int poison; o |]

let poisoned_multi ~origin ~poisons =
  if List.exists (Asn.equal origin) poisons then
    invalid_arg "As_path.poisoned_multi: cannot poison the origin";
  match poisons with
  | [] -> invalid_arg "As_path.poisoned_multi: empty poison list"
  | _ :: _ -> of_list ((origin :: poisons) @ [ origin ])

(* Top-level, so the walk builds no closure. Index 0 is the hash, so
   the walk compares it first. *)
let rec equal_from (a : t) (b : t) i = i >= Array.length a || (a.(i) = b.(i) && equal_from a b (i + 1))

(* A route passed along from speaker to speaker keeps its path by
   pointer, so the common case is the [==] hit; unequal values differ in
   the cached hash with high probability. The structural walk only runs
   on a hash collision or on distinct values that happen to be equal. *)
let equal a b = a == b || (Array.length a = Array.length b && equal_from a b 0)

let to_string t =
  String.concat " " (List.map (fun a -> string_of_int (Asn.to_int a)) (to_list t))

let pp fmt t = Format.pp_print_string fmt (to_string t)
