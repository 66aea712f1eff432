(** Continuous multi-outage LIFEGUARD operations: probe budgets, bounded
    retries, damping-aware remediation pacing and chaos injection on top
    of the core control loop. *)

module Budget = Budget
module Chaos = Chaos
module Service = Service
