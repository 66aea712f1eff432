(** Observability for the simulator itself: structured tracing and
    metrics, shared by every layer between the event engine and
    the CLIs.

    Everything here is stdlib-only and domain-safe by construction: all
    mutable state is either per-domain (shards, trace buffers) or guarded
    by a registry mutex touched only on the cold paths, and every merge
    is an order-insensitive reduction — which is how instrumentation
    coexists with the repository's byte-identical [--jobs] invariant (see
    ARCHITECTURE.md). With tracing and metrics disabled (the default),
    every instrument costs one atomic flag read and allocates nothing.

    Layering: [lib/obs] depends on nothing; [sim], [bgp], [dataplane],
    [measurement] and [experiments] record into it; the CLI
    ([bin/lifeguard_cli]) enables it via [--trace FILE] and [--metrics]
    and renders the results. *)

module Clock = Clock
(** Injected wall-clock source (libraries may not read the clock). *)

module Metrics = Metrics
(** Counters / max-gauges / fixed-bucket histograms, per-domain shards
    merged at read time. *)

module Trace = Trace
(** JSONL event sink with per-domain buffering. *)
