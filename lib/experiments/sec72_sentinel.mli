(** §7.2 Sentinel prefix variants.

    The paper weighs three designs for the sentinel. (1) A covering
    less-specific with an unused sub-prefix — the deployed choice — gives
    both a {e backup route} for networks captive behind the poisoned AS
    (longest-prefix match falls through to the less-specific) and
    {e repair detection} (probe replies sourced in the unused space ride
    the unpoisoned route through the poisoned AS). (2) A disjoint unused
    prefix detects repairs but leaves captives with no route. (3) No
    sentinel at all gives neither. This experiment exercises all three on
    the Fig. 2 topology and reports which property each provides. *)

type variant = Covering_less_specific | Disjoint_unused | No_sentinel | Dns_redirection

type row = {
  variant : variant;
  captive_has_route : bool;  (** F (captive behind A) keeps a covering route. *)
  repair_detectable : bool;  (** Probes notice when A heals, while still poisoned. *)
}

type result = { rows : row list }

val run : unit -> result
(** One row per variant, each on a fresh copy of the Fig. 2 world. Fully
    deterministic. *)

val to_tables : result -> Stats.Table.t list
