(** Deterministic pseudo-random number generation for reproducible
    experiments.

    Every experiment in this repository draws its randomness from a {!t}
    created from an explicit integer seed, so that each table and figure is
    exactly reproducible. The generator is xoshiro256** seeded through
    splitmix64, a combination with good statistical quality and a tiny,
    dependency-free implementation. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator deterministically from [seed]. Equal
    seeds yield identical streams. *)

val split : t -> t
(** [split t] derives an independent child generator from [t], advancing
    [t]. Children of distinct draws are statistically independent, which
    lets sub-experiments consume randomness without perturbing each
    other. *)

val float : t -> float
(** [float t] is uniform in [\[0, 1)]. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> 'a array -> 'a array
(** [sample_without_replacement t k arr] draws [min k (Array.length arr)]
    distinct elements of [arr], in random order. *)

(** Samplers for the distributions used by the outage and delay models. *)
module Dist : sig
  val exponential : t -> mean:float -> float
  (** Exponential with the given mean. *)

  val pareto : t -> shape:float -> scale:float -> float
  (** Pareto (type I) with minimum [scale] and tail index [shape]; heavy
      tails for [shape <= 2]. *)

  val lognormal : t -> mu:float -> sigma:float -> float
  (** Log-normal: [exp] of a normal (Box–Muller) with parameters [mu],
      [sigma]. *)
end
