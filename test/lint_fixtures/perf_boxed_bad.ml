(* must-flag fixture for LG-PERF-BOXED: xoshiro state in boxed mutable
   fields, so every draw allocates four fresh int64 boxes. *)

type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let bits64 t =
  let result = Int64.mul t.s1 9L in
  let tmp = Int64.shift_left t.s1 17 in
  t.s2 <- Int64.logxor t.s2 t.s0;
  t.s3 <- Int64.logxor t.s3 t.s1;
  t.s1 <- Int64.logxor t.s1 t.s2;
  t.s0 <- Int64.logxor t.s0 t.s3;
  t.s2 <- Int64.logxor t.s2 tmp;
  result

(* The module-qualified spellings are the same boxes. *)
type counters = { mutable sent : Int32.t; mutable stamp : nativeint }
