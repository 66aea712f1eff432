(** Table 1: the paper's headline results, aggregated from the individual
    experiments. One row per claim, paper value vs. measured value. *)

val to_tables :
  efficacy:Sec51_efficacy.result ->
  convergence:Fig6_convergence.result ->
  loss:Sec52_loss.result ->
  selective:Sec52_selective.result ->
  accuracy:Sec53_accuracy.result ->
  scalability:Sec54_scalability.result ->
  Stats.Table.t list
