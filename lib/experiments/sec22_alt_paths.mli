(** §2.2: do policy-compliant alternate paths exist during failures?

    The paper ran traceroutes between all PlanetLab site pairs for a week
    and, for each observed outage, tried to splice a working path from
    the source with a working path into the destination, joining at a
    shared hop and accepting the joint only if the three-AS subpath at
    the splice point had been observed (a conservative stand-in for
    export policies). Alternate paths existed for 49% of all outages and
    83% of outages lasting at least an hour; 98% of alternates present in
    a failure's first round persisted throughout.

    We reproduce the pipeline: collect a mesh of AS paths between
    vantage points, inject transit failures with durations from the
    calibrated outage model, and splice around the AS where the failing
    traceroute terminates. Longer outages are modeled as in the paper's
    data by biasing long failures toward better-connected transit ASes
    (core failures persist; edge flaps clear quickly). *)

type result = {
  outages : int;
  fraction_all : float;  (** Paper: 0.49. *)
  long_outages : int;  (** Outages of at least an hour, forced-long samples included. *)
  fraction_long : float;  (** Paper: 0.83. *)
  persistence : float;  (** Alternates present at start that persist; paper: 0.98. *)
}

val run : ases:int -> outage_count:int -> seed:int -> unit -> result
(** Inject [outage_count] failures (plus a third as many forced-long
    ones) between the sites of an [ases]-AS PlanetLab world and splice
    around each. Deterministic in [seed]. *)

val to_tables : result -> Stats.Table.t list
