(** Route-flap damping vs. LIFEGUARD's announcement schedule.

    The paper kept every experimental announcement in place for 90
    minutes "to allow convergence and to avoid flap dampening effects"
    (§5). This experiment shows why on a damping-enabled Internet:
    cycling poison/unpoison announcements minutes apart accumulates
    RFC 2439 penalties until routers suppress the production prefix
    outright — self-inflicted unreachability — while the same cycles
    spaced 90 minutes apart never trip suppression. *)

type result = {
  ases : int;
  rapid_suppressors : int;
      (** ASes holding a damped (suppressed) candidate after three
          poison/unpoison cycles spaced 60 s apart. *)
  rapid_cutoff : int;  (** ASes left with no production route at all. *)
  spaced_suppressors : int;  (** Same after 90-minute spacing; expected 0. *)
  spaced_cutoff : int;
}

val run : ases:int -> jobs:int -> seed:int -> unit -> result
(** Run the rapid and the spaced schedule, each in its own damping-enabled
    [ases]-AS world, on [jobs] workers. Deterministic in [seed]. *)

val to_tables : result -> Stats.Table.t list
