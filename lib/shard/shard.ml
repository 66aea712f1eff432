(** Sharded single-world simulation: deterministic time-barrier
    scheduling over partitioned {!Sim.Engine} event queues. The graph
    partitioner lives in {!Topology.Partition}; the BGP embedding
    (per-shard speakers, stores and boundary sessions) in
    [Bgp.Network]'s sharded mode, which no product path uses. *)

module Barrier = Barrier
