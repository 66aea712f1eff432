open Net

(* Valley-free check: walk the path tracking whether we are still allowed
   to go "up" (customer->provider) or sideways (one peer edge), after which
   only "down" (provider->customer) edges are legal. *)
(* lint: allow LG-DEAD-EXPORT (oracle: test_topology.ml and test_invariants.ml) *)
let valley_free graph path =
  let rec go can_go_up = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> begin
        match As_graph.relationship graph ~a ~b with
        | None -> false
        | Some rel -> begin
            match rel with
            | Relationship.Provider -> can_go_up && go true rest
            | Relationship.Peer -> can_go_up && go false rest
            | Relationship.Customer -> go false rest
          end
      end
  in
  go true path

(* Two-phase BFS over (AS, phase) states: phase [up] may still climb to a
   provider or cross one peer edge, phase [down] only descends to
   customers. A state packs into one int, [asn * 2 + phase]. [pred] maps
   each reached state to the state it was reached from (the start state
   to itself) and doubles as the visited set, so a query allocates one
   small table, the queue cells and the returned path. *)
module Int_tbl = Hashtbl.Make (Int)

let up = 0
let down = 1
let state asn phase = (Asn.to_int asn * 2) + phase
let asn_of s = Asn.of_int (s / 2)

let search graph ~src ~dst ~avoiding =
  if Asn.Set.mem src avoiding || Asn.Set.mem dst avoiding then None
  else if Asn.equal src dst then Some [ src ]
  else begin
    let start = state src up in
    let pred = Int_tbl.create 64 in
    Int_tbl.replace pred start start;
    let queue = Queue.create () in
    Queue.push start queue;
    let found = ref (-1) in
    let current = ref start in
    let visit next next_phase =
      let s = state next next_phase in
      if (not (Int_tbl.mem pred s)) && not (Asn.Set.mem next avoiding) then begin
        Int_tbl.replace pred s !current;
        if Asn.equal next dst then found := s else Queue.push s queue
      end
    in
    let step next (rel : Relationship.t) =
      match rel with
      | Customer -> visit next down
      | Provider -> if !current land 1 = up then visit next up
      | Peer -> if !current land 1 = up then visit next down
    in
    while !found < 0 && not (Queue.is_empty queue) do
      current := Queue.pop queue;
      As_graph.iter_neighbors graph (asn_of !current) step
    done;
    if !found < 0 then None
    else begin
      let rec unwind acc s =
        let prev = Int_tbl.find pred s in
        if Int.equal prev s then asn_of s :: acc else unwind (asn_of s :: acc) prev
      in
      Some (unwind [] !found)
    end
  end

let policy_path graph ~src ~dst ~avoiding = search graph ~src ~dst ~avoiding
let policy_reachable graph ~src ~dst ~avoiding =
  Option.is_some (search graph ~src ~dst ~avoiding)

module Tuples = struct
  (* Keys are (a,b,c) triples of raw ASN ints, stored in both orientations
     so that reverse traversals also count as observed. *)
  module Triple_tbl = Hashtbl.Make (struct
    type t = int * int * int

    let equal (a1, b1, c1) (a2, b2, c2) = a1 = a2 && b1 = b2 && c1 = c2

    let hash (a, b, c) =
      ((((a * 0x9E3779B1) lxor b) * 0x85EBCA77) lxor c) land max_int
  end)

  type t = unit Triple_tbl.t

  let wildcard = -1

  let add t a b c =
    Triple_tbl.replace t (a, b, c) ();
    Triple_tbl.replace t (c, b, a) ()

  let of_paths paths =
    let t = Triple_tbl.create 4096 in
    let add_path path =
      let arr = Array.of_list (List.map Asn.to_int path) in
      let n = Array.length arr in
      for i = 0 to n - 3 do
        add t arr.(i) arr.(i + 1) arr.(i + 2)
      done;
      (* Path-end pairs: an AS at the end of an observed path has been seen
         exporting to/importing from its neighbor, recorded with a
         wildcard third element. *)
      if n >= 2 then begin
        add t wildcard arr.(0) arr.(1);
        add t arr.(n - 2) arr.(n - 1) wildcard
      end
    in
    List.iter add_path paths;
    t

  let observed t a b c =
    let a = Asn.to_int a and b = Asn.to_int b and c = Asn.to_int c in
    Triple_tbl.mem t (a, b, c)
    || Triple_tbl.mem t (wildcard, b, c)
    || Triple_tbl.mem t (a, b, wildcard)
end

let splice_around ~from_src ~to_dst ~tuples ~avoid ~dst =
  (* Index positions of each AS in the destination-bound paths. *)
  let suffix_at path asn =
    let rec go = function
      | [] -> None
      | hd :: _ as rest when Asn.equal hd asn -> Some rest
      | _ :: rest -> go rest
    in
    go path
  in
  let path_avoids path = not (List.exists (Asn.equal avoid) path) in
  let try_pair src_path dst_path =
    (* Walk the source path hop by hop; at each hop, attempt to continue
       along the destination-bound path from that hop. *)
    let rec go prefix_rev before = function
      | [] -> None
      | hop :: rest -> begin
          let candidate =
            if Asn.equal hop avoid then None
            else begin
              match suffix_at dst_path hop with
              | None -> None
              | Some suffix -> begin
                  let joined = List.rev_append prefix_rev suffix in
                  if (not (path_avoids joined)) || not (List.exists (Asn.equal dst) suffix)
                  then None
                  else begin
                    (* Three-tuple check at the splice point: the subpath
                       (before, hop, after) must have been observed. *)
                    let after =
                      match suffix with
                      | _ :: next :: _ -> Some next
                      | _ -> None
                    in
                    match (before, after) with
                    | Some b, Some a ->
                        if Asn.equal b a || Tuples.observed tuples b hop a then Some joined
                        else None
                    | _ -> Some joined
                  end
                end
            end
          in
          match candidate with
          | Some _ as found -> found
          | None ->
              if Asn.equal hop avoid then None
              else go (hop :: prefix_rev) (Some hop) rest
        end
    in
    go [] None src_path
  in
  let rec first_some f = function
    | [] -> None
    | x :: rest -> begin
        match f x with
        | Some _ as found -> found
        | None -> first_some f rest
      end
  in
  first_some (fun sp -> first_some (fun dp -> try_pair sp dp) to_dst) from_src
