(** Experiment scenario builders: the simulated counterparts of the
    paper's testbeds.

    {!planetlab} stands in for the PlanetLab mesh (vantage points in edge
    networks probing each other and routers in large transit ASes);
    {!bgpmux} for the BGP-Mux deployment (an origin AS multi-homed to
    five university providers, with a route-collector feed); and
    {!case_study} for §6's fixed topology (a Taiwanese site whose reverse
    path silently dies inside a commercial transit). *)

open Net
open Topology

type testbed = {
  engine : Sim.Engine.t;
  graph : As_graph.t;
  gen : Topo_gen.t option;  (** The generator output, when synthetic. *)
  net : Bgp.Network.t;
  failures : Dataplane.Failure.set;
  probe : Dataplane.Probe.env;
  vantage_points : Asn.t list;
  targets : Asn.t list;
}

val settle : testbed -> seconds:float -> unit
(** Advance the simulation clock with no traffic — letting MRAI windows
    expire so the next announcement propagates like the paper's
    experiments, which spaced announcements 90 minutes apart. *)

val view : testbed -> testbed
(** A view of a converged world: the testbed a trial that only {e reads}
    routes runs on, so that many trials share one world instead of
    forking or rebuilding it.

    The view shares the world's [graph], [gen], [net], [vantage_points]
    and [targets]. It owns a fresh, empty [failures] set, a fresh [probe]
    env over it (its own reachability memo and probe count), and a fresh
    [engine] whose clock starts at the world's. The probe env stamps its
    trace events with that engine's clock.

    What a view may do:
    - probe, walk and look routes up in the shared network;
    - add and remove [Data_only] failures in its own set;
    - schedule events on, and run, its own engine.

    What it may not do is anything that writes the shared network:
    announce or withdraw a prefix, inject a [Control_and_data] failure
    (that fails a session or a node), or run the world's engine (for
    instance through {!Bgp.Network.run_until_quiet} or {!settle} on the
    world). Views of one world may be used from several [Par.Pool]
    domains at once only because nothing writes the world; the drivers
    run their views through [Experiments.Runner.run_views], which checks
    after the trials that the world was not written and raises if it
    was. A view of a sharded world ({!bgpmux} with [shards > 1]) is not
    supported: its reads synchronise shard engines. *)

type infrastructure =
  | All  (** One infrastructure prefix per AS, announced and converged. *)
  | Endpoints_only of Asn.t list
      (** Only the listed ASes' infrastructure prefixes. Probes target —
          and hop replies return to — endpoint addresses only, so a trial
          that probes between a known set of ASes needs only those
          prefixes; skipping the rest removes ~99% of testbed
          construction cost, which is what makes cheap per-trial worlds
          (and hence the domain-parallel runner) affordable. *)
  | No_infrastructure
      (** Control-plane-only trials: nothing announced, no convergence
          run at build time. *)

type planetlab_infrastructure =
  | Sites  (** [Endpoints_only] of the chosen vantage points + targets. *)
  | Of of infrastructure

val planetlab :
  ?ases:int ->
  ?sites:int ->
  ?target_count:int ->
  ?mrai:float ->
  ?infrastructure:planetlab_infrastructure ->
  seed:int ->
  unit ->
  testbed
(** A synthetic Internet of roughly [ases] ASes (default 318) with
    infrastructure prefixes announced and converged (default [Of All];
    [Sites] restricts announcements to the chosen vantage points and
    targets, which is all the probing experiments touch). [sites]
    (default 20) stub ASes act as PlanetLab vantage points;
    [target_count] (default 25) targets are drawn from the highest-degree
    transit ASes, echoing the EC2 study's "five routers each from the 50
    highest-degree ASes". *)

val production_prefix : Prefix.t
(** The /24 carrying "real" traffic in mux scenarios (203.0.113.0/24). *)

val sentinel_prefix : Prefix.t
(** Its covering /23 sentinel (203.0.112.0/23); the low half is unused
    address space for repair probes. *)

type mux = {
  bed : testbed;
  origin : Asn.t;  (** The LIFEGUARD AS (BGP-Mux AS). *)
  providers : Asn.t list;  (** Its university muxes. *)
  plan : Lifeguard.Remediate.plan;
  collector : Bgp.Network.Collector.t;
  feeds : Asn.t list;  (** Route-collector peer ASes. *)
}

val bgpmux :
  ?ases:int ->
  ?mrai:float ->
  ?fib_install_delay:float ->
  ?infrastructure:infrastructure ->
  ?shards:int ->
  ?record_barriers:bool ->
  seed:int ->
  unit ->
  mux
(** A {!planetlab}-style Internet plus a multi-homed origin attached to
    5 distinct transit providers, a production /24 with covering /23
    sentinel, and a collector fed by 40 ASes
    across tiers. The baseline is {e not} announced —
    each experiment controls its own announcements. [infrastructure]
    (default [All]) selects which ASes announce infrastructure prefixes;
    control-plane experiments pass [No_infrastructure] so per-trial
    worlds build in milliseconds. [shards] and [record_barriers] pass
    through to {!Bgp.Network.create}. *)

val harvest_on_path_ases : mux -> Asn.t list
(** The transit ASes appearing on collector peers' current paths to the
    production prefix, excluding the origin, its direct providers and
    tier-1s — the paper's §5 harvesting step that chooses which ASes to
    poison. Requires the production prefix to be announced and the
    network converged. *)

(** The fixed topology of the paper's §6 case study. *)
module Case_study : sig
  type t = {
    bed : testbed;
    origin : Asn.t;  (** The LIFEGUARD AS announcing via UWisc. *)
    uwisc : Asn.t;
    wiscnet : Asn.t;
    internet2 : Asn.t;
    apan : Asn.t;
    tanet : Asn.t;
    taiwan : Asn.t;  (** The National Tsing Hua University site. *)
    twgate : Asn.t;
    uunet : Asn.t;
    level3 : Asn.t;
    plan : Lifeguard.Remediate.plan;
  }

  val build : unit -> t
  (** Converged, infrastructure announced; the Taiwanese site initially
      routes to the origin through TWGate -> UUNET -> Level3 -> UWisc
      (shorter than the academic TANet -> APAN -> I2 -> WiscNet chain).
      No failure injected yet. *)

  val uunet_failure : t -> Dataplane.Failure.spec
  (** The silent failure of §6: UUNET keeps announcing but drops packets
      destined to the origin's address space (scoped to the sentinel, so
      production, sentinel and repair probes all see it). *)
end

(** Placing a synthetic failure on the live path between two ASes. *)
module Placement : sig
  type placed = {
    spec : Dataplane.Failure.spec;
    location : Asn.t;  (** The AS at (or nearest) the failure. *)
    far_side : Asn.t option;  (** The other end for link failures. *)
  }

  val on_path :
    Prng.t ->
    testbed ->
    ?toward_src:Prefix.t ->
    src:Asn.t ->
    dst:Asn.t ->
    shape:Outage_gen.shape ->
    unit ->
    placed option
  (** Choose a transit AS (or inter-AS link) on the current data-plane
      path matching [shape]: reverse failures sit on the [dst -> src]
      path and are scoped toward [src]'s infrastructure prefix, forward
      failures on the [src -> dst] path toward [dst]'s, bidirectional
      failures are unscoped. [toward_src] overrides the reverse scope — a
      LIFEGUARD origin passes its sentinel prefix so reverse failures hit
      the whole announced space, monitors included. Returns [None] when
      the path has no transit hops to break. *)
end
