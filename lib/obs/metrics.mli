(** Counters, max-gauges and fixed-bucket histograms with lock-free
    per-domain shards.

    The design constraint is the repository's share-nothing [--jobs]
    invariant: instrumenting the hot layers must not reintroduce
    cross-domain mutable state, and enabling metrics must leave every
    experiment table byte-identical for any worker count. Both follow
    from the sharding scheme:

    - every domain owns a private shard (via [Domain.DLS]) and is the
      only mutator of it, so recording needs no locks and no allocation;
    - shards are merged only at {!snapshot} time — counters and histogram
      buckets by summation, gauges by maximum — all of which are
      order-insensitive, so totals do not depend on how trials were
      sharded over domains;
    - instruments record {e simulation-derived} quantities (event counts,
      queue depths, RIB sizes), which are deterministic per trial.

    Metric creation ({!counter} / {!gauge} / {!histogram}) interns by
    name under a registry mutex and is meant for module-initialisation
    time; the recording calls ({!incr}, {!add}, {!observe_max},
    {!observe}) are the hot path and cost one atomic flag read when
    disabled. *)

val enable : unit -> unit
(** Start recording. Call from the outermost binary (or a test) before
    the instrumented run, ideally before worker domains are spawned. *)

val disable : unit -> unit
(** Stop recording; instruments return to their zero-cost path. *)

val on : unit -> bool
(** Whether recording is enabled. *)

type counter
(** A monotonically increasing count (e.g. events dispatched). *)

type gauge
(** A high-watermark: {!observe_max} keeps the largest value seen.
    Plain last-write-wins gauges are deliberately absent — their merged
    value would depend on domain scheduling. *)

type histogram
(** A fixed-bucket histogram of float observations. *)

val counter : string -> counter
(** Intern a counter by name (idempotent: the same name yields the same
    counter). *)

val gauge : string -> gauge
(** Intern a max-gauge by name. *)

val histogram : string -> histogram
(** Intern a histogram by name. Its buckets are decades from 1 ms to
    1000 s, each an inclusive upper bound; an implicit overflow bucket
    catches everything above the last bound. *)

val incr : counter -> unit
(** Add 1. No-op (one flag read) when disabled. *)

val add : counter -> int -> unit
(** Add [n]. No-op when disabled. *)

val observe_max : gauge -> int -> unit
(** Raise the gauge's high-watermark to [v] if larger. No-op when
    disabled. *)

val observe : histogram -> float -> unit
(** Count [v] into its bucket. No-op when disabled. *)

val local_value : counter -> int
(** The calling domain's own shard value for [c] — a deterministic
    per-trial delta source for trial-scoped accounting (each trial runs
    start-to-finish on one domain). 0 when disabled or never recorded. *)

type hist_row = {
  hname : string;
  bounds : float array;  (** Upper bounds of the buckets. *)
  counts : int array;  (** Per-bucket counts; length = bounds + 1 (overflow). *)
  total : int;
}

type snapshot = {
  counters : (string * int) list;  (** Name-sorted, summed over shards. *)
  gauges : (string * int) list;  (** Name-sorted, max over shards. *)
  hists : hist_row list;  (** Name-sorted, buckets summed over shards. *)
}

val snapshot : unit -> snapshot
(** Merge all shards. Call when the instrumented run is quiescent (no
    worker domains mid-trial); a concurrent snapshot never crashes but
    may miss in-flight increments. *)

val quantile : hist_row -> float -> float option
(** [quantile h q] (for [q] in (0, 1]) is the upper bound of the bucket
    holding the [q]-quantile of [h]'s observations — so the quantile is
    at most that value — or [infinity] when it falls in the overflow
    bucket. [None] for an empty histogram. *)

val counter_value : snapshot -> string -> int
(** The merged value of a named counter in a snapshot; 0 when absent. *)

val reset : unit -> unit
(** Zero every shard (registrations survive). Call between experiments,
    when quiescent, to get per-experiment snapshots. *)
