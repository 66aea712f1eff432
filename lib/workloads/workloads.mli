(** Workload generation: outage datasets calibrated to the paper's EC2
    measurements and scenario builders standing in for its testbeds
    (PlanetLab mesh, BGP-Mux deployment, the §6 case study), plus the
    continuous Poisson arrival process the fleet service runs on, and the
    templates that let a driver build a world once and fork it per trial. This
    interface pins the library surface to exactly these modules. *)

module Outage_gen = Outage_gen
module Arrivals = Arrivals
module Scenarios = Scenarios
module Template = Template
