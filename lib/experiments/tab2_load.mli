(** Table 2: additional daily path changes per router under a deployment.

    Paper grid over I (fraction of ISPs deploying), T (fraction of
    networks monitored) and d (minutes before poisoning); for reference,
    a single-homed edge router sees ~110K updates/day. *)

type result = {
  rows : Lifeguard.Load_model.grid_row list;
  reference_cell : float;  (** I=0.01, T=1.0, d=15 — anchored at ~275. *)
  overhead_small_deploy : float;
      (** Relative to the 110K/day edge router, at I=0.1, T=1.0, d=15. *)
}

val run : ?n:int -> seed:int -> unit -> result
(** Regenerate the grid from [n] modeled outage durations (default the
    paper's 10,308). Deterministic in [seed]. *)

val to_tables : result -> Stats.Table.t list
