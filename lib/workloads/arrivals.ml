open Net

type injected = {
  at : float;
  duration : float;
  target : Asn.t;
  location : Asn.t;
  direction : Outage_gen.direction;
  spec : Dataplane.Failure.spec;
}

type t = {
  mutable injected : injected list;  (** newest first *)
  mutable drawn : int;
  mutable unplaceable : int;
}

let create () = { injected = []; drawn = 0; unplaceable = 0 }

let start ?toward_src t ~rng ~bed ~src ~targets ~mean_interarrival ~until () =
  if mean_interarrival <= 0.0 then
    invalid_arg "Arrivals.start: mean interarrival must be positive";
  if targets = [] then invalid_arg "Arrivals.start: no targets";
  let engine = bed.Scenarios.engine in
  let rec schedule_next at =
    if at < until then
      Sim.Engine.schedule engine ~at (fun () ->
          t.drawn <- t.drawn + 1;
          let target = Prng.pick_list rng targets in
          let shape = Outage_gen.shape rng in
          (match Scenarios.Placement.on_path rng bed ?toward_src ~src ~dst:target ~shape () with
          | Some placed ->
              let spec = placed.Scenarios.Placement.spec in
              Dataplane.Failure.add bed.Scenarios.failures spec;
              Sim.Engine.schedule_after engine ~delay:shape.Outage_gen.duration (fun () ->
                  Dataplane.Failure.remove bed.Scenarios.failures spec);
              t.injected <-
                {
                  at;
                  duration = shape.Outage_gen.duration;
                  target;
                  location = placed.Scenarios.Placement.location;
                  direction = shape.Outage_gen.direction;
                  spec;
                }
                :: t.injected
          | None -> t.unplaceable <- t.unplaceable + 1);
          schedule_next
            (Sim.Engine.now engine +. Prng.Dist.exponential rng ~mean:mean_interarrival))
  in
  schedule_next (Sim.Engine.now engine +. Prng.Dist.exponential rng ~mean:mean_interarrival)

let injected t = List.rev t.injected
let injected_count t = List.length t.injected
let drawn_count t = t.drawn
let unplaceable_count t = t.unplaceable
