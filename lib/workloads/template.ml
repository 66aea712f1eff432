type 'a t = string

let capture x = Marshal.to_string x [ Marshal.Closures ]

(* Unmarshalling allocates straight into the major heap, faster than the
   GC paces itself, so without a collection here each fork's heap sits
   on top of the last trial's garbage. One cycle is enough: every
   template the drivers fork is a control-plane-only BGP-Mux world of a
   few hundred KiB. *)
let fork t =
  Gc.major ();
  Marshal.from_string t 0
