open Net

(* Per-world dense prefix ids, and the trie over them.

   Per-world is load-bearing: lib/par worlds are share-nothing (LG-DOM-MUT
   forbids module-level tables in libraries), so each [Network.create]
   builds its own store and threads it through every [Speaker.create].
   Ids are assigned in first-sight order and are therefore world-local;
   no output depends on them. *)

type t = {
  prefix_ids : int Prefix.Table.t;
      (* Dense prefix ids, assigned in first-sight order: the table's
         length is the next id. *)
  prefix_trie : int Prefix_trie.t;
      (* The same ids by prefix, for longest-prefix match: one trie per
         world answers every speaker's FIB lookup. *)
  mutable ordered : int array;
      (* The ids in [Prefix.compare] order of their prefixes; stale (and
         rebuilt on the next read) once a new prefix has been given an
         id, which is rare after the first convergence. *)
}

(* The table starts at the hashtable minimum and grows with the world: a
   fixed large start would be most of a small world's size. *)
let create () =
  { prefix_ids = Prefix.Table.create 16; prefix_trie = Prefix_trie.create (); ordered = [||] }

let prefix_id t prefix =
  match Prefix.Table.find t.prefix_ids prefix with
  | id -> id
  | exception Not_found ->
      let id = Prefix.Table.length t.prefix_ids in
      Prefix.Table.add t.prefix_ids prefix id;
      Prefix_trie.replace t.prefix_trie prefix id;
      id

let ordered_prefix_ids t =
  if Array.length t.ordered <> Prefix.Table.length t.prefix_ids then
    t.ordered <-
      Prefix.Table.fold (fun p id acc -> (p, id) :: acc) t.prefix_ids []
      |> List.sort (fun (a, _) (b, _) -> Prefix.compare a b)
      |> List.map snd |> Array.of_list;
  t.ordered

let find_prefix_id t prefix = Prefix.Table.find_opt t.prefix_ids prefix
let longest_match t ip f s = Prefix_trie.find_longest t.prefix_trie ip f s
