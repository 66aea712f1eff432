(* xoshiro256** with splitmix64 seeding. Self-contained so experiments do
   not depend on the stdlib Random's version-dependent stream. *)

(* The four state words live unboxed in one 32-byte buffer: a record of
   [mutable int64] fields would box a fresh int64 on every write, four per
   draw. The byte order is private to this module, so native order is as
   good as any. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 8 s1;
  set t 16 s2;
  set t 24 s3;
  t

let splitmix64 state =
  let ( +% ) = Int64.add and ( *% ) = Int64.mul in
  let z = state +% 0x9E3779B97F4A7C15L in
  let z' = Int64.logxor z (Int64.shift_right_logical z 30) *% 0xBF58476D1CE4E5B9L in
  let z'' = Int64.logxor z' (Int64.shift_right_logical z' 27) *% 0x94D049BB133111EBL in
  (z, Int64.logxor z'' (Int64.shift_right_logical z'' 31))

let create ~seed =
  let s = ref (Int64.of_int seed) in
  let next () =
    let state, out = splitmix64 !s in
    s := state;
    out
  in
  let s0 = next () in
  let s1 = next () in
  let s2 = next () in
  let s3 = next () in
  (* All-zero state is the one invalid state for xoshiro; seed 0 cannot
     produce it through splitmix64, but guard anyway. *)
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then of_words 1L s1 s2 s3
  else of_words s0 s1 s2 s3

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set t 0 (Int64.logxor s0 s3);
  set t 8 (Int64.logxor s1 s2);
  set t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  set t 24 (rotl s3 45);
  result

let split t =
  let seed = Int64.to_int (bits64 t) in
  create ~seed

let copy = Bytes.copy

let[@inline] float t =
  (* 53 high-quality bits mapped to [0,1). *)
  let x = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float x /. 9007199254740992.0

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling over the low bits to avoid modulo bias. *)
  let mask = Int64.of_int (max 1 n - 1) in
  let bits_needed =
    let rec go acc m = if m = 0 then acc else go (acc + 1) (m lsr 1) in
    go 0 (n - 1)
  in
  ignore mask;
  let rec draw () =
    let x =
      Int64.to_int
        (Int64.shift_right_logical (bits64 t) (64 - max 1 bits_needed))
    in
    if x < n then x else draw ()
  in
  if n = 1 then 0 else draw ()

let bool t = Int64.logand (bits64 t) 1L = 1L
let bernoulli t ~p = float t < p

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Prng.pick: empty array";
  arr.(int t (Array.length arr))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Prng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k arr =
  let n = Array.length arr in
  let k = min k n in
  let copy = Array.copy arr in
  (* Partial Fisher–Yates: the first k slots end up being the sample. *)
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = copy.(i) in
    copy.(i) <- copy.(j);
    copy.(j) <- tmp
  done;
  Array.sub copy 0 k

module Dist = struct
  let exponential t ~mean =
    let u = 1.0 -. float t in
    -.mean *. log u

  let pareto t ~shape ~scale =
    let u = 1.0 -. float t in
    scale /. (u ** (1.0 /. shape))

  let normal t ~mu ~sigma =
    let u1 = 1.0 -. float t and u2 = float t in
    let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
    mu +. (sigma *. z)

  let lognormal t ~mu ~sigma = exp (normal t ~mu ~sigma)
end
