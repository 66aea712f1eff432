(** The shape of an isolation verdict, as a plan key.

    A remediation plan is precomputed per (target, failure class): the
    class captures exactly the parts of an {!Lifeguard.Isolation.diagnosis}
    that the decision process consumes — which AS is blamed, the failure
    direction, and whether path-reversal evidence (a working forward path)
    was found. Two outages with the same class get the same remediation,
    which is what makes the offline failure map useful. *)

open Net
open Lifeguard

type t = {
  blamed : Asn.t;  (** The AS the isolation pipeline blamed. *)
  direction : Isolation.direction;
  reversal : bool;  (** Was a working reverse-direction path observed? *)
}

val of_diagnosis : Isolation.diagnosis -> t option
(** [None] when the diagnosis blames no specific AS ([Unlocated]) — such
    outages have no plannable class and always go through the fresh
    decision process. *)

val compare : t -> t -> int
(** Total order (blamed AS, then direction, then reversal) — the
    iteration order of every plan store, hence part of the determinism
    story. *)

val to_string : t -> string
