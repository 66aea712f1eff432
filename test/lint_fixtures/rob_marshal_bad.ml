(* Must-flag corpus for LG-ROB-MARSHAL: Marshal outside the template
   module. Parsed but never compiled. *)

let save world = Marshal.to_string world [ Marshal.Closures ]

let load s = Stdlib.Marshal.from_string s 0

module M = Marshal

let size s = Marshal.(total_size (Bytes.of_string s) 0)
