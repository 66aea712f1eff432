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
   customers. A state packs into one int, [id * 2 + phase], over the
   graph's dense AS ids. The context holds the search's arrays:
   [mark.(s) = gen] when state [s] was reached in the current search,
   [pred.(s)] the state it was reached from (the start state itself),
   and [queue] the FIFO, in which each state appears at most once. A new
   search bumps [gen] instead of clearing [mark], so a query allocates
   only the path it returns. *)
type context = {
  mutable mark : int array;
  mutable pred : int array;
  mutable queue : int array;
  mutable gen : int;
  mutable tail : int;
}

let context () = { mark = [||]; pred = [||]; queue = [||]; gen = 0; tail = 0 }

let up = 0
let down = 1

let visit ctx s cur =
  if ctx.mark.(s) <> ctx.gen then begin
    ctx.mark.(s) <- ctx.gen;
    ctx.pred.(s) <- cur;
    ctx.queue.(ctx.tail) <- s;
    ctx.tail <- ctx.tail + 1
  end

(* Expand queued states from [head] on, in FIFO order and each AS's
   neighbours in ascending ASN order, until one of [dst]'s two states is
   reached; that state, or [-1]. *)
let rec drain ctx graph dst head =
  if ctx.mark.(dst + up) = ctx.gen then dst + up
  else if ctx.mark.(dst + down) = ctx.gen then dst + down
  else if head >= ctx.tail then -1
  else begin
    let cur = ctx.queue.(head) in
    let climbing = cur land 1 = up in
    let ids = As_graph.neighbor_ids graph (cur / 2)
    and rels = As_graph.neighbor_rels graph (cur / 2) in
    for k = 0 to Array.length ids - 1 do
      let s = ids.(k) * 2 in
      match rels.(k) with
      | Relationship.Customer -> visit ctx (s + down) cur
      | Provider -> if climbing then visit ctx (s + up) cur
      | Peer -> if climbing then visit ctx (s + down) cur
    done;
    drain ctx graph dst (head + 1)
  end

let policy_path ctx graph ~src ~dst ~avoiding =
  if Asn.Set.mem src avoiding || Asn.Set.mem dst avoiding then None
  else if Asn.equal src dst then Some [ src ]
  else begin
    let start = As_graph.id graph src * 2 in
    if not (As_graph.mem graph dst) then None
    else begin
      let states = 2 * As_graph.as_count graph in
      if Array.length ctx.mark < states then begin
        ctx.mark <- Array.make states 0;
        ctx.pred <- Array.make states 0;
        ctx.queue <- Array.make states 0;
        ctx.gen <- 0
      end;
      ctx.gen <- ctx.gen + 1;
      (* An avoided AS is never entered: both its states start reached. *)
      Asn.Set.iter
        (fun a ->
          if As_graph.mem graph a then begin
            let s = As_graph.id graph a * 2 in
            ctx.mark.(s + up) <- ctx.gen;
            ctx.mark.(s + down) <- ctx.gen
          end)
        avoiding;
      ctx.mark.(start) <- ctx.gen;
      ctx.pred.(start) <- start;
      ctx.queue.(0) <- start;
      ctx.tail <- 1;
      let found = drain ctx graph (As_graph.id graph dst * 2) 0 in
      if found < 0 then None
      else begin
        let rec unwind acc s =
          let acc = As_graph.asn_of_id graph (s / 2) :: acc in
          let prev = ctx.pred.(s) in
          if Int.equal prev s then acc else unwind acc prev
        in
        Some (unwind [] found)
      end
    end
  end

let policy_reachable ctx graph ~src ~dst ~avoiding =
  Option.is_some (policy_path ctx graph ~src ~dst ~avoiding)

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
