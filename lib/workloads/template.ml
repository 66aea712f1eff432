type 'a t = string

let capture x = Marshal.to_string x [ Marshal.Closures ]

(* Unmarshalling allocates straight into the major heap, faster than the
   GC paces itself, so without a collection here each fork's heap sits
   on top of the last trial's garbage. One cycle is enough for a small
   world. The last trial's world was usually marked live by the cycle in
   progress when it died, so only a full collection (three cycles) frees
   it; for a large world that stale copy sets the peak heap, and the full
   collection costs less than the fork itself. *)
let large = 1 lsl 20

let fork t =
  if String.length t > large then Gc.full_major () else Gc.major ();
  Marshal.from_string t 0
