open Net
open Topology

(* An address absent from [answered] was never probed; present, it maps
   to whether any probe of it was answered. *)
type t = {
  silent : unit Ipv4.Table.t;
  answered : bool Ipv4.Table.t;
  mutable observations : int;
}

let create () =
  { silent = Ipv4.Table.create 64; answered = Ipv4.Table.create 256; observations = 0 }

let configure_silent t ip = Ipv4.Table.replace t.silent ip ()

let configure_silent_fraction t rng graph ~fraction =
  List.iter
    (fun asn ->
      Array.iter
        (fun r ->
          if Prng.bernoulli rng ~p:fraction then configure_silent t r.As_graph.address)
        (As_graph.routers graph asn))
    (As_graph.as_list graph)

let is_silent t ip = Ipv4.Table.mem t.silent ip

let note t ip success =
  t.observations <- t.observations + 1;
  if success then Ipv4.Table.replace t.answered ip true
  else if not (Ipv4.Table.mem t.answered ip) then Ipv4.Table.replace t.answered ip false

let ever_responded t ip =
  match Ipv4.Table.find t.answered ip with
  | answered -> answered
  | exception Not_found -> false

let expect_response t ip =
  (not (is_silent t ip))
  &&
  match Ipv4.Table.find t.answered ip with
  | answered -> answered
  | exception Not_found -> true

let observation_count t = t.observations
