(** Internet addressing primitives: AS numbers, IPv4 addresses, CIDR
    prefixes and a longest-prefix-match table. *)

module Asn = Asn
module Ipv4 = Ipv4
module Prefix = Prefix
module Prefix_trie = Prefix_trie
