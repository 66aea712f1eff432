(** Plain-text table rendering for experiment output.

    [lifeguard paper] prints one table per reproduced paper table or
    figure; this module keeps the formatting in one place so the output
    stays aligned and diff-friendly. *)

type t

val create : title:string -> columns:string list -> t
(** A table with a title line and a header row. *)

val add_row : t -> string list -> unit
(** Append a row; must have as many cells as there are columns. *)

val add_rows : t -> string list list -> unit
(** Append several rows. *)

val render : t -> string
(** Render with a title, a header, a separator and aligned columns. *)

val print : ?out:Format.formatter -> t -> unit
(** [render] to [out] (default [Format.std_formatter]) followed by a
    blank line. *)

val cell_float : ?decimals:int -> float -> string
(** Format a float cell ([decimals] defaults to 2). *)

val cell_pct : ?decimals:int -> float -> string
(** Format a fraction in [\[0,1\]] as a percentage cell, e.g. ["76.5%"]. *)

val cell_int : int -> string
(** Format an int cell. *)
