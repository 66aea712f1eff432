(** Empirical cumulative distribution functions, plain and weighted.

    Figure 1 of the paper plots two CDFs over the same outages: the
    fraction of {e events} of at most a given duration, and the fraction of
    {e total unavailability} (duration-weighted mass) they contribute.
    {!of_samples} builds the former and {!weighted} the latter. *)

type t
(** An ECDF: a non-decreasing step function on floats. *)

val of_samples : float array -> t
(** Unweighted ECDF of the samples. Raises on an empty sample. *)

val weighted : values:float array -> weights:float array -> t
(** ECDF where each value carries the given non-negative weight; the CDF at
    [x] is the weight mass of values [<= x] divided by the total mass.
    Arrays must have equal non-zero length. *)

val eval : t -> float -> float
(** [eval t x] is [P(X <= x)], in [\[0, 1\]]. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [(0, 1\]]: smallest value [x] with
    [eval t x >= q]. *)

val series_at : t -> float list -> (float * float) list
(** Evaluate the CDF at the given x positions. *)
