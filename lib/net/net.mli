(** Internet addressing primitives: AS numbers, IPv4 addresses, CIDR
    prefixes and a longest-prefix-match table.

    This interface pins the library surface to exactly these four
    modules; helper code stays internal. *)

module Asn = Asn
module Ipv4 = Ipv4
module Prefix = Prefix
module Prefix_trie = Prefix_trie
