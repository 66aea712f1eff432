(* must-flag fixture: LG-PERF-SCAN through a local helper. [ambient_of]
   wraps List.assoc over a captured list and is applied once per sampler
   inside an iteration closure, so every round scans the list once per
   sampler. *)

let sample rng samplers rounds =
  let ambient = List.map (fun vp -> (vp, draw rng)) samplers in
  let ambient_of vp = List.assoc vp ambient in
  List.iter (fun vp -> rounds := (vp, bernoulli rng (ambient_of vp)) :: !rounds) samplers
