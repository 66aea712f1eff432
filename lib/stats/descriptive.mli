(** Descriptive statistics over float samples.

    All functions operate on plain [float array] samples; none of them
    mutate their input. Percentile computations sort a private copy. *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty sample. *)

val sum : float array -> float
(** Sum of the sample. *)

val min_max : float array -> float * float
(** Smallest and largest element. Raises on an empty sample. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0, 100\]], with linear interpolation
    between order statistics. Raises on an empty sample. *)

val median : float array -> float
(** 50th percentile. *)

val fraction : ('a -> bool) -> 'a array -> float
(** [fraction pred xs] is the share of elements satisfying [pred]; [0.] on
    an empty array. *)

val fraction_list : ('a -> bool) -> 'a list -> float
(** List analogue of {!fraction}. *)
