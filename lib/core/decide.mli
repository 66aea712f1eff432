(** Deciding whether (and when) to poison — §4.2.

    Two gates. First, age: most outages resolve themselves within minutes,
    so LIFEGUARD only treats an outage as poison-worthy once it has
    survived detection plus isolation (the paper shows that an outage that
    has already lasted a few minutes will most likely last several more —
    Fig. 5). Second, feasibility: poisoning an AS only helps if a
    policy-compliant path avoiding it exists, which is checked on the AS
    graph before announcing anything. *)

open Net
open Topology

type config = {
  min_outage_age : float;
      (** Only poison outages at least this old (default 300 s: detection
          plus the ~140 s isolation pipeline, as in §4.2). *)
}

val default_config : config

type verdict =
  | Poison of Asn.t  (** Go: poison this AS. *)
  | Wait of string  (** The outage is too young; give routing time. *)
  | Hopeless of string  (** Poisoning cannot help (no alternate path, ...). *)

val pp_verdict : Format.formatter -> verdict -> unit

val alternate_path_exists :
  Splice.context -> As_graph.t -> src:Asn.t -> origin:Asn.t -> avoid:Asn.t -> bool
(** Would [src] still have a valley-free path to [origin] if every route
    through [avoid] disappeared? The a-priori feasibility check behind the
    paper's 90%-of-simulated-poisonings result (§5.1), run in the given
    search context. *)

val decide :
  ?feasible:(src:Asn.t -> avoid:Asn.t -> bool) ->
  config ->
  As_graph.t ->
  origin:Asn.t ->
  diagnosis:Isolation.diagnosis ->
  outage_age:float ->
  verdict
(** Combine the isolation result with the outage's age. Only reverse and
    bidirectional failures are poison candidates here — forward failures
    are better fixed by switching egress (§2.3), which the origin can do
    locally. [feasible] overrides the alternate-path check (default
    {!alternate_path_exists} on [graph], in a search context made for
    this call); a precomputed plan passes its
    memoized feasibility bit here so a cache hit routes through the exact
    same verdict construction as a fresh decision. *)

(** Residual-duration analysis over a set of outage durations (Fig. 5):
    given that an outage has lasted [elapsed], how much longer will it
    last? *)
module Residual : sig
  type stats = {
    elapsed : float;  (** Conditioning point, seconds. *)
    count : int;  (** Outages that survived to [elapsed]. *)
    mean : float;
    median : float;
    p25 : float;
  }

  val at : durations:float array -> elapsed:float -> stats option
  (** [None] when no outage lasted to [elapsed]. *)

  val survival_fraction : durations:float array -> elapsed:float -> horizon:float -> float
  (** Among outages alive at [elapsed], the share still alive at
      [elapsed + horizon] — e.g. the paper's "of the problems that
      persisted 5 minutes, 51% lasted at least 5 more". *)
end
