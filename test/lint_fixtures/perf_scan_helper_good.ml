(* must-pass fixture: List.assoc on a constant table outside any loop,
   a local lookup helper applied outside any loop, a name that shadows a
   helper, a helper that scans its own parameter, and per-sampler values
   kept aligned with the samplers. *)

let paper = [ ("prepend: instant", 0.95); ("no prepend: instant", 0.5) ]

let rows measured =
  [ [ "prepend: instant"; string_of_float (List.assoc "prepend: instant" paper); measured ] ]

let headline table =
  let paper_of k = List.assoc k table in
  paper_of "prepend: instant" +. paper_of "no prepend: instant"

let shadowed table keys =
  let find k = List.assoc k table in
  let find k = Tbl.find (table_of_pairs table) k in
  List.map (fun k -> find k) keys

let resolve_all aliases paths =
  let resolve aliases head = List.assoc_opt head aliases in
  List.map (fun head -> resolve aliases head) paths

let sample rng samplers rounds =
  let ambient = List.map (fun _ -> draw rng) samplers in
  List.iter2 (fun vp p -> rounds := (vp, bernoulli rng p) :: !rounds) samplers ambient
