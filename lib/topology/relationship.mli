(** Business relationships between neighboring ASes.

    BGP routing policy on the real Internet is dominated by the
    customer/provider/peer structure (Gao's model): an AS pays its
    providers, is paid by its customers, and settles freely with peers.
    Export policy follows the money — routes learned from a peer or
    provider are re-exported only to customers — which yields the
    "valley-free" property this reproduction uses both in the BGP
    simulator and in LIFEGUARD's alternate-path existence check. Every
    link is one of these three; there are no sibling links. *)

type t =
  | Customer  (** The neighbor is my customer (it pays me). *)
  | Provider  (** The neighbor is my provider (I pay it). *)
  | Peer  (** Settlement-free peer. *)

val invert : t -> t
(** The relationship seen from the other side: a [Customer]'s view of me is
    [Provider], and vice versa; [Peer] is symmetric. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val local_pref : t -> int
(** Conventional local preference for routes learned from a neighbor of
    this kind: customers (300) over peers (200) over providers (100).
    Prefer-customer is what makes economic sense and is assumed
    throughout the paper's simulations. *)

val export_ok : learned_from:t -> to_:t -> bool
(** [export_ok ~learned_from ~to_] implements Gao–Rexford export: routes
    learned from customers (or originated locally — use
    [~learned_from:Customer] for locally originated routes) are exported to
    everyone; routes learned from peers or providers are exported only to
    customers. *)
