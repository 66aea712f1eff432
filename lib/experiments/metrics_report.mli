(** The [--metrics] summary both binaries print after a run. *)

val print : unit -> unit
(** Print one table of every Obs counter, max-gauge and histogram in the
    current {!Obs.Metrics.snapshot}, merged over domains. Counters and
    gauges show their value; histograms show their p50, p90 and p99 as
    bucket bounds ([<=b], or [>b] past the last bound). *)
