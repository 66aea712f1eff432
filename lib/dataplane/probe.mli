(** Measurement probes over the simulated data plane.

    The vocabulary of §4.1: pings, traceroutes, their {e spoofed} variants
    (send with someone else's source address so the reply takes — and
    therefore tests — a different direction than the request), and an
    emulated reverse traceroute. Each primitive also accrues a probe-packet
    count in the environment, feeding the paper's §5.4 overhead
    accounting. *)

open Net

type memo
(** The reachability memo: {!Forward.delivers} verdicts keyed by
    (source AS, destination address). *)

type env = private {
  net : Bgp.Network.t;
  failures : Failure.set;
  engine : Sim.Engine.t;
  mutable probes_sent : int;
  memo : memo;
}
(** A probing context: the control plane, the active failures, the
    engine whose clock stamps the [meas.probe] trace events, a running
    count of probe packets and a reachability memo.

    Pings, the reply legs of traceroutes and reverse traceroute's
    feasibility check need only yes/no reachability. They answer it from
    the memo while the world's forwarding epoch
    ({!Bgp.Network.fib_epoch}) and the failure set's
    {!Failure.version} are both unchanged since the verdict was computed;
    if either has moved, the whole memo is flushed first. A memoized
    answer is therefore always the one a fresh walk would give, and every
    call still charges its probes, so [probes_sent] (and the
    [meas.probes] counter) are unaffected. The record is [private]: only
    this module writes it. The Obs counters [dataplane.memo_hits],
    [dataplane.memo_misses] and [dataplane.memo_flushes] count the
    memo's hits, misses (walks) and flushes. *)

val env : ?engine:Sim.Engine.t -> Bgp.Network.t -> Failure.set -> env
(** [engine] is the engine the probing trial runs on (default: the
    network's own). A trial on a view of a shared world
    ([Workloads.Scenarios.view]) runs on its own engine, so its probes
    must be stamped with that engine's clock, not the world's frozen
    one. *)

val reset_probe_count : env -> unit

val charge : env -> int -> unit
(** Add [n] probe packets to [probes_sent] and to [meas.probes]: for
    measurement techniques built outside this module. *)

val delivers : env -> src:Asn.t -> dst:Ipv4.t -> bool
(** [Forward.delivers] on the env's world, answered from the
    reachability memo when it holds a live verdict (see {!env}), and
    walked (then stored) otherwise. The answer is always the one
    [Forward.delivers] would give at this instant. It is not a probe:
    nothing is charged to [probes_sent] or [meas.probes]. It is the
    verdict path for every yes/no data-plane question asked in a loop,
    such as the loss and ablation samplers. *)

val stamp : env -> int
(** The reachability memo's flush counter, read after the check every
    {!delivers} makes first (flush if the data plane moved). Two equal
    stamps of one env bracket an interval in which every probe of this
    module answers as it did: each {!delivers} verdict, each {!ping},
    each traceroute walk and each responder lookup. The stamp moves
    whenever {!Bgp.Network.fib_epoch} or {!Failure.version} does, and
    both only grow, so a stamp never returns to an earlier value. The
    one other input of a probe, the network's prefix-owner table
    ({!Bgp.Network.owner_of_address}), changes only when a prefix is
    announced or withdrawn. That also changes the origin's local best
    route, which installs a FIB entry and so moves the epoch. With a
    modelled FIB install delay the install trails the table change,
    and no stamp holder runs on such a world. Stamps of different envs
    are unrelated.

    A periodic prober keeps each result with the stamp it was measured
    at. While the stamp is unchanged it reuses the result and
    {!charge}s the probes a fresh measurement would have sent:
    [Measurement.Monitor], [Measurement.Hubble] and
    [Measurement.Atlas.refresh_all]. Each reads the stamp just before
    the measurement it guards, whose first {!delivers} would have made
    the same flush, so [dataplane.memo_flushes] does not move. A reused
    result skips only memo hits, so [dataplane.memo_hits] is the one
    counter it moves. *)

val ping : env -> src:Asn.t -> dst:Ipv4.t -> bool
(** Echo request from [src]'s first router to [dst] and reply back to
    [src]'s infrastructure address. True iff both directions deliver. *)

val ping_from : env -> src:Asn.t -> src_ip:Ipv4.t -> dst:Ipv4.t -> bool
(** Like {!ping} but the reply is routed to [src_ip] — how LIFEGUARD's
    sentinel tests repairs: probes sourced from the sentinel's unused
    sub-prefix draw their replies over the unpoisoned sentinel route. *)

val spoofed_ping : env -> sender:Asn.t -> spoof_src:Ipv4.t -> dst:Ipv4.t -> bool
(** [sender] probes [dst] with source address [spoof_src]; true iff the
    request delivers and the reply delivers to [spoof_src]'s owner. With
    [spoof_src] at a vantage point this tests the forward direction
    [sender -> dst] in isolation; with the roles swapped it isolates the
    reverse direction. *)

type trace_hop = { hop : Forward.hop; responded : bool }
(** A traceroute hop: [responded] means the hop's TTL-expired reply
    actually made it back to wherever replies were addressed. *)

type trace = {
  hops : trace_hop list;  (** Forward hops, source first. *)
  reached : bool;  (** The destination answered (forward + reply ok). *)
  outcome : Forward.outcome;  (** The raw forward-walk outcome. *)
}

val last_responsive_as : trace -> Asn.t option
(** The AS of the last hop that responded — what an operator reading the
    traceroute would blame (possibly wrongly, cf. §5.3). *)

val visible_path : trace -> Asn.t list
(** AS path as the measuring host sees it: hops up to and including the
    last responsive one. *)

val traceroute : env -> src:Asn.t -> dst:Ipv4.t -> trace
(** Classic traceroute: forward hops probe by TTL; each hop's reply must
    travel back to [src]. Unidirectional reverse failures make hops appear
    silent even though the forward path works — the misleading case
    motivating LIFEGUARD's isolation. *)

val spoofed_traceroute : env -> sender:Asn.t -> spoof_src:Ipv4.t -> dst:Ipv4.t -> trace
(** Traceroute whose replies flow to [spoof_src]'s owner instead of the
    sender, measuring the forward path even when the sender's reverse
    direction is broken. *)

val reverse_traceroute :
  env -> vantage_points:Asn.t list -> from_:Asn.t -> to_ip:Ipv4.t -> trace option
(** Emulation of reverse traceroute [19]: measure the path {e from}
    [from_] back to [to_ip]. Requires at least one vantage point with a
    working forward path to [from_] (to deliver the spoofed stimuli);
    costs ~10 option probes plus 2 traceroutes (per the paper's §5.4
    amortized figures). Returns the hop-annotated walk, truncated where
    the reverse path fails. *)
