(* A path-uncompressed binary trie over address bits, updated in place.
   Prefix lengths are at most 32, and the tables in this reproduction
   hold at most a few thousand prefixes, so the simple representation is
   plenty fast and easy to verify. An insert touches the nodes on its
   path and allocates only the nodes it adds (and the [Some] it stores);
   the node record is inline in the constructor, so a lookup follows
   exactly one pointer per bit. *)

type 'a node =
  | Leaf
  | Node of { mutable value : 'a option; mutable zero : 'a node; mutable one : 'a node }

(* The root is always a [Node], so every update has a record to write. *)
type 'a t = 'a node

let create () = Node { value = None; zero = Leaf; one = Leaf }

let bit_at addr i =
  (* Bit [i] counting from the most significant (i = 0 is the /1 bit). *)
  Int32.logand (Int32.shift_right_logical (Ipv4.to_int32 addr) (31 - i)) 1l = 1l

(* The update loops are top-level functions rather than closures over
   the prefix, so an update allocates nothing but new nodes and the
   stored [Some]. *)
let rec replace_from addr len v node depth =
  match node with
  | Leaf -> ()
  | Node n ->
      if depth = len then n.value <- Some v
      else if bit_at addr depth then begin
        (match n.one with Leaf -> n.one <- create () | Node _ -> ());
        replace_from addr len v n.one (depth + 1)
      end
      else begin
        (match n.zero with Leaf -> n.zero <- create () | Node _ -> ());
        replace_from addr len v n.zero (depth + 1)
      end

let replace t prefix v = replace_from (Prefix.network prefix) (Prefix.length prefix) v t 0

let is_empty = function
  | Leaf -> true
  | Node { value = None; zero = Leaf; one = Leaf } -> true
  | Node _ -> false

(* Clear the binding and prune the nodes it leaves holding nothing, so
   the trie has the same shape as one built without the prefix. *)
let rec remove_from addr len node depth =
  match node with
  | Leaf -> ()
  | Node n ->
      if depth = len then n.value <- None
      else if bit_at addr depth then begin
        remove_from addr len n.one (depth + 1);
        if is_empty n.one then n.one <- Leaf
      end
      else begin
        remove_from addr len n.zero (depth + 1);
        if is_empty n.zero then n.zero <- Leaf
      end

let remove t prefix = remove_from (Prefix.network prefix) (Prefix.length prefix) t 0

let lookup t ip =
  (* Walk down following the address bits, remembering the deepest value. *)
  let rec go t depth best =
    match t with
    | Leaf -> best
    | Node { value; zero; one } ->
        let best =
          match value with
          | Some v -> Some (Prefix.make ip depth, v)
          | None -> best
        in
        if depth >= 32 then best
        else if bit_at ip depth then go one (depth + 1) best
        else go zero (depth + 1) best
  in
  go t 0 None

(* The deepest [Some] that [f s] gives for a value met on the way down
   is returned as is, so the walk allocates nothing of its own; [f] is
   passed its state [s] rather than closing over it, so a caller with a
   closed [f] allocates nothing either. *)
let rec find_longest_from ip f s t depth best =
  match t with
  | Leaf -> best
  | Node { value; zero; one } ->
      let best =
        match value with
        | Some v -> ( match f s v with Some _ as found -> found | None -> best)
        | None -> best
      in
      if depth >= 32 then best
      else if bit_at ip depth then find_longest_from ip f s one (depth + 1) best
      else find_longest_from ip f s zero (depth + 1) best

let find_longest t ip f s = find_longest_from ip f s t 0 None
