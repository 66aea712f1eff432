open Net

(* Per-world interner for AS paths and announcements.

   Per-world is load-bearing: lib/par worlds are share-nothing (LG-DOM-MUT
   forbids module-level tables in libraries), so each [Network.create]
   builds its own store and threads it through every [Speaker.create].
   Interning is pure deduplication — it never changes what a table prints,
   only which physical value backs it — so tables stay byte-identical at
   any [--jobs]. Ids are assigned in first-intern order and are therefore
   world-local; [As_path.equal] never compares them across values. *)

module Path_key = struct
  type t = As_path.t

  (* Structural identity: the id stamped by interning must not influence
     lookups, so an uninterned probe finds its interned twin. *)
  let equal a b = As_path.equal a b
  let hash = As_path.hash
end

module Path_tbl = Hashtbl.Make (Path_key)

module Ann_key = struct
  type t = Route.announcement

  let equal = Route.announcement_equal
  let hash (a : t) = (Prefix.hash a.prefix lxor (As_path.hash a.path * 0x9E3779B1)) land max_int
end

module Ann_tbl = Hashtbl.Make (Ann_key)

type t = {
  mutable next_id : int;
  paths : As_path.t Path_tbl.t;
  anns : Route.announcement Ann_tbl.t;
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

(* Tables start at the hashtable minimum and grow with the world: a
   fixed large start would be most of a small world's size. *)
let create () =
  {
    next_id = 0;
    paths = Path_tbl.create 16;
    anns = Ann_tbl.create 16;
    prefix_ids = Prefix.Table.create 16;
    prefix_trie = Prefix_trie.create ();
    ordered = [||];
  }

let intern_path t path =
  match Path_tbl.find_opt t.paths path with
  | Some shared -> shared
  | None ->
      let stamped = As_path.Internal.with_id path t.next_id in
      t.next_id <- t.next_id + 1;
      Path_tbl.add t.paths stamped stamped;
      stamped

let intern_ann t (ann : Route.announcement) =
  match Ann_tbl.find_opt t.anns ann with
  | Some shared -> shared
  | None ->
      let path = intern_path t ann.path in
      let stored = if path == ann.path then ann else { ann with path } in
      Ann_tbl.add t.anns stored stored;
      stored

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
let path_count t = Path_tbl.length t.paths
let ann_count t = Ann_tbl.length t.anns
