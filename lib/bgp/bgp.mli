(** Event-driven BGP simulator: announcements, RIBs, Gao–Rexford policy,
    the decision process, MRAI-paced propagation, route collectors and
    convergence metrics. BGP loop prevention — the mechanism LIFEGUARD's
    poisoning exploits — lives in {!Policy.import}. *)

module As_path = As_path
module Path_store = Path_store
module Route = Route
module Policy = Policy
module Decision = Decision
module Speaker = Speaker
module Network = Network
module Faults = Faults
module Convergence = Convergence
