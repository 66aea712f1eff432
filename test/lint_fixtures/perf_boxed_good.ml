(* must-pass fixture for LG-PERF-BOXED: the same state as four words of
   one Bytes buffer, read and written unboxed; immutable boxed fields
   (allocated once, with their record) are fine. *)

type t = Bytes.t

let bits64 t =
  let s0 = Bytes.get_int64_le t 0 and s1 = Bytes.get_int64_le t 8 in
  Bytes.set_int64_le t 0 (Int64.logxor s0 s1);
  Bytes.set_int64_le t 8 (Int64.shift_left s1 17);
  Int64.mul s1 9L

type hop = { addr : Net.Ipv4.t; rtt_ns : int64; mutable seen : int }
