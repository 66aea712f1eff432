(** Observability: structured tracing + metrics for the simulator
    itself. See the interface for the layering contract. *)

module Clock = Clock
module Metrics = Metrics
module Trace = Trace
