open Net
open Topology

(* Decision-process invocations and the loc-RIB size high-watermark
   (Obs). The gauge is a max, not a last-write: a max merges across
   domain shards independently of trial scheduling, which keeps the
   --metrics summary byte-identical for every --jobs value. *)
let m_decisions = Obs.Metrics.counter "bgp.decisions"
let m_loc_rib = Obs.Metrics.gauge "bgp.loc_rib"

type action = Announce of Route.announcement | Withdraw of Prefix.t

type origination = {
  per_neighbor : Asn.t -> As_path.t option;
  local_ann : Route.announcement;
      (* The interned loc-RIB announcement ([self] plain path), built once
         at [originate] so every [compute_best] reuses the same physical
         value and the refresh change-check settles on [==]. *)
}

module Damp_key = struct
  type t = Prefix.t * Asn.t

  let equal (p1, n1) (p2, n2) = Prefix.equal p1 p2 && Asn.equal n1 n2
  let hash (p, n) = (Prefix.hash p lxor (Asn.hash n * 0x9E3779B1)) land max_int
end

module Damp_tbl = Hashtbl.Make (Damp_key)

(* One record per neighbor session, in the speaker's neighbor order. *)
type session = {
  asn : Asn.t;
  rel : Relationship.t;  (** Our relationship to the neighbor. *)
  adj_out : Route.announcement Prefix.Table.t;
      (** Adj-RIB-out toward the neighbor: prefix -> last sent. *)
  index : unit Prefix.Table.t;
      (** Reverse index of [adj_in] for this neighbor: the prefixes it
          currently has a candidate for, so [affected_prefixes] and
          [session_down] never fold the whole adj-RIB-in. *)
  mutable down : bool;
}

type t = {
  self : Asn.t;
  config : Policy.config;
  store : Path_store.t;
      (* The world's interner: shared with every other speaker of the same
         [Network], never across worlds (share-nothing). *)
  sessions : session array;
      (** In neighbor order, which fixes the order of every export list. *)
  session_of : session Asn.Table.t;
  peers_of_self : Asn.Set.t;
  adj_in : Route.entry Asn.Table.t Prefix.Table.t;
      (** prefix -> (neighbor -> candidate route) *)
  locals : origination Prefix.Table.t;
  best_table : Route.entry Prefix.Table.t;
  fib : Route.entry Prefix_trie.t;
  fib_epoch : int ref;
      (** Bumped by every [install_fib]; shared by all speakers of a
          {!Network}, so one read tells whether any FIB in the world moved. *)
  mutable on_best_change : (now:float -> Prefix.t -> Route.entry option -> unit) option;
  mutable fib_commit : (Prefix.t -> Route.entry option -> unit) option;
  damp : damp_state Damp_tbl.t;
  mutable reuse_scheduler : (delay:float -> Prefix.t -> unit) option;
}

and damp_state = { mutable penalty : float; mutable last : float; mutable suppressed : bool }

let create ?store ?fib_epoch ~asn ~config ~neighbors () =
  let sessions =
    Array.of_list
      (List.map
         (fun (n, rel) ->
           {
             asn = n;
             rel;
             adj_out = Prefix.Table.create 8;
             index = Prefix.Table.create 8;
             down = false;
           })
         neighbors)
  in
  let session_of = Asn.Table.create 16 in
  Array.iter (fun s -> Asn.Table.replace session_of s.asn s) sessions;
  let peers_of_self =
    List.fold_left
      (fun acc (n, rel) ->
        if Relationship.equal rel Relationship.Peer then Asn.Set.add n acc else acc)
      Asn.Set.empty neighbors
  in
  {
    self = asn;
    config;
    store = (match store with Some s -> s | None -> Path_store.create ());
    sessions;
    session_of;
    peers_of_self;
    adj_in = Prefix.Table.create 64;
    locals = Prefix.Table.create 4;
    best_table = Prefix.Table.create 16;
    fib = Prefix_trie.create ();
    fib_epoch = (match fib_epoch with Some e -> e | None -> ref 0);
    on_best_change = None;
    fib_commit = None;
    damp = Damp_tbl.create 16;
    reuse_scheduler = None;
  }

let asn t = t.self
let path_store t = t.store
let set_on_best_change t f = t.on_best_change <- Some f
let set_reuse_scheduler t f = t.reuse_scheduler <- Some f
let set_fib_commit_hook t f = t.fib_commit <- Some f

(* --- Route-flap damping (RFC 2439, simplified) --- *)

let decayed_penalty (cfg : Policy.damping) state ~now =
  let dt = now -. state.last in
  if dt <= 0.0 then state.penalty
  else state.penalty *. (0.5 ** (dt /. cfg.Policy.half_life))

(* Record one flap of (prefix, neighbor); returns true when the route
   just crossed into suppression. *)
let note_flap t ~now prefix neighbor =
  match t.config.Policy.damping with
  | None -> false
  | Some cfg ->
      let key = (prefix, neighbor) in
      let state =
        match Damp_tbl.find_opt t.damp key with
        | Some s -> s
        | None ->
            let s = { penalty = 0.0; last = now; suppressed = false } in
            Damp_tbl.replace t.damp key s;
            s
      in
      state.penalty <- decayed_penalty cfg state ~now +. cfg.Policy.penalty_per_flap;
      state.last <- now;
      if (not state.suppressed) && state.penalty >= cfg.Policy.suppress_threshold then begin
        state.suppressed <- true;
        (* Ask for a wake-up when the penalty will have decayed to the
           reuse threshold. *)
        (match t.reuse_scheduler with
        | Some schedule ->
            let ratio = state.penalty /. cfg.Policy.reuse_threshold in
            let delay = cfg.Policy.half_life *. (log ratio /. log 2.0) in
            schedule ~delay:(Float.max 1.0 delay) prefix
        | None -> ());
        true
      end
      else false

(* Lazily lift suppression once the penalty has decayed. *)
let is_suppressed t ~now prefix neighbor =
  match t.config.Policy.damping with
  | None -> false
  | Some cfg -> begin
      match Damp_tbl.find_opt t.damp (prefix, neighbor) with
      | None -> false
      | Some state ->
          if not state.suppressed then false
          else begin
            let p = decayed_penalty cfg state ~now in
            if p < cfg.Policy.reuse_threshold then begin
              state.penalty <- p;
              state.last <- now;
              state.suppressed <- false;
              false
            end
            else true
          end
    end

let install_fib t prefix entry =
  incr t.fib_epoch;
  match entry with
  | Some e -> Prefix_trie.replace t.fib prefix e
  | None -> Prefix_trie.remove t.fib prefix

let session t n =
  match Asn.Table.find t.session_of n with
  | s -> s
  | exception Not_found -> invalid_arg (Printf.sprintf "Speaker %s: unknown neighbor %s"
                           (Asn.to_string t.self) (Asn.to_string n))

let adj_in_table t prefix =
  match Prefix.Table.find_opt t.adj_in prefix with
  | Some table -> table
  | None ->
      let table = Asn.Table.create 8 in
      Prefix.Table.replace t.adj_in prefix table;
      table

(* The loc-RIB best for a prefix: a local origination wins outright;
   otherwise the decision process over the adj-RIB-in candidates. *)
let compute_best t ~now prefix =
  Obs.Metrics.incr m_decisions;
  match Prefix.Table.find_opt t.locals prefix with
  | Some { local_ann; _ } -> Some (Route.local_entry_of ~ann:local_ann ~self:t.self ~now)
  | None -> begin
      match Prefix.Table.find_opt t.adj_in prefix with
      | None -> None
      | Some table ->
          if Damp_tbl.length t.damp = 0 then Decision.best_in_table table
          else begin
            (* Damped candidates are ineligible until their penalty decays. *)
            let eligible =
              Asn.Table.fold
                (fun neighbor entry acc ->
                  if is_suppressed t ~now prefix neighbor then acc else entry :: acc)
                table []
            in
            Decision.best eligible
          end
    end

(* The announcement the loc-RIB best [entry] goes out as. It is the same
   toward every neighbor, so a sync builds and interns it at most once. *)
let best_export t entry =
  Path_store.intern_ann t.store (Policy.export_ann ~self:t.self ~entry)

(* Desired announcement toward session [s] for [prefix], or None. [local]
   and [best] are the prefix's origination and loc-RIB best; [best_out]
   is [best_export] of [best] once a caller has built it (None before),
   and an export of [best] reuses it. *)
let desired t s ~prefix local best best_out =
  if s.down then None
  else begin
    match local with
    | Some { per_neighbor; _ } -> begin
        match per_neighbor s.asn with
        | Some path ->
            Some (Path_store.intern_ann t.store (Route.announcement ~prefix ~path))
        | None -> None
      end
    | None -> begin
        match best with
        | None -> None
        | Some entry ->
            if Policy.export_allowed ~entry ~to_neighbor:s.asn ~to_rel:s.rel then
              match best_out with Some _ -> best_out | None -> Some (best_export t entry)
            else None
      end
  end

(* Diff desired exports against adj-RIB-out; mutate adj-RIB-out and return
   the updates to put on the wire, in neighbor order. *)
let sync_exports t prefix =
  let local = Prefix.Table.find_opt t.locals prefix in
  let best = Prefix.Table.find_opt t.best_table prefix in
  let best_out = ref None in
  let updates = ref [] in
  for i = 0 to Array.length t.sessions - 1 do
    let s = t.sessions.(i) in
    let desired = desired t s ~prefix local best !best_out in
    (match (local, desired) with
    | None, Some _ -> best_out := desired
    | _ -> ());
    match (desired, Prefix.Table.find_opt s.adj_out prefix) with
    | None, None -> ()
    | Some d, Some c when Route.announcement_equal d c -> ()
    | Some d, _ ->
        Prefix.Table.replace s.adj_out prefix d;
        updates := (s.asn, Announce d) :: !updates
    | None, Some _ ->
        Prefix.Table.remove s.adj_out prefix;
        updates := (s.asn, Withdraw prefix) :: !updates
  done;
  List.rev !updates

(* [force_sync] matters when per-neighbor desired exports can move without
   the loc-RIB best changing: an origination change (the local best keeps
   its plain path while [per_neighbor] now says something else) or an
   explicit re-advertisement. The plain receive path skips the all-neighbor
   sync whenever the best is unchanged — with an unchanged loc-RIB, every
   desired export is unchanged too, so the old unconditional scan provably
   emitted nothing. *)
let refresh_best ?(force_sync = false) t ~now prefix =
  let old_best = Prefix.Table.find_opt t.best_table prefix in
  let new_best = compute_best t ~now prefix in
  let changed =
    match (old_best, new_best) with
    | None, None -> false
    | Some a, Some b ->
        not (Route.announcement_equal a.Route.ann b.Route.ann)
        || not (Asn.equal a.Route.neighbor b.Route.neighbor)
    | _ -> true
  in
  if changed then begin
    (match new_best with
    | Some e -> Prefix.Table.replace t.best_table prefix e
    | None -> Prefix.Table.remove t.best_table prefix);
    Obs.Metrics.observe_max m_loc_rib (Prefix.Table.length t.best_table);
    (match t.fib_commit with
    | Some commit -> commit prefix new_best
    | None -> install_fib t prefix new_best);
    match t.on_best_change with
    | Some f -> f ~now prefix new_best
    | None -> ()
  end;
  if changed || force_sync then sync_exports t prefix else []

let originate t ~now ~prefix ~per_neighbor =
  let local_ann =
    Path_store.intern_ann t.store
      (Route.announcement ~prefix ~path:(As_path.plain ~origin:t.self))
  in
  Prefix.Table.replace t.locals prefix { per_neighbor; local_ann };
  refresh_best ~force_sync:true t ~now prefix

let stop_originating t ~now ~prefix =
  Prefix.Table.remove t.locals prefix;
  refresh_best ~force_sync:true t ~now prefix

let receive t ~now ~from action =
  let s = session t from in
  if s.down then []
  else begin
    match action with
    | Withdraw prefix ->
        let table = adj_in_table t prefix in
        if Asn.Table.mem table from then begin
          ignore (note_flap t ~now prefix from);
          Asn.Table.remove table from
        end;
        Prefix.Table.remove s.index prefix;
        refresh_best t ~now prefix
    | Announce ann -> begin
        let ann = Path_store.intern_ann t.store ann in
        let prefix = ann.Route.prefix in
        let table = adj_in_table t prefix in
        (* A changed announcement from a neighbor that already had a route
           is a flap. *)
        (match Asn.Table.find_opt table from with
        | Some previous
          when not (Route.announcement_equal previous.Route.ann ann) ->
            ignore (note_flap t ~now prefix from)
        | Some _ | None -> ());
        match
          Policy.import t.config ~self:t.self ~peers_of_self:t.peers_of_self
            ~neighbor:from ~rel:s.rel ann
        with
        | Policy.Rejected _ ->
            (* An update that fails import replaces (removes) whatever this
               neighbor previously announced for the prefix. *)
            Asn.Table.remove table from;
            Prefix.Table.remove s.index prefix;
            refresh_best t ~now prefix
        | Policy.Accepted local_pref ->
            Asn.Table.replace table from
              (Route.make_entry ~salt:(Asn.to_int t.self) ~ann ~neighbor:from
                 ~rel:s.rel ~local_pref ~learned_at:now ());
            Prefix.Table.replace s.index prefix ();
            refresh_best t ~now prefix
      end
  end

let affected_prefixes t s =
  let from_adj = Prefix.Table.fold (fun p () acc -> Prefix.Set.add p acc) s.index Prefix.Set.empty in
  Prefix.Table.fold (fun p _ acc -> Prefix.Set.add p acc) t.locals from_adj

let session_down t ~now ~neighbor =
  let s = session t neighbor in
  if s.down then []
  else begin
    s.down <- true;
    let affected = affected_prefixes t s in
    Prefix.Table.iter (fun p () -> Asn.Table.remove (adj_in_table t p) neighbor) s.index;
    Prefix.Table.clear s.index;
    (* Clear adj-RIB-out toward the dead session so a later session_up
       re-announces from scratch: one table cleared in place, not a walk
       of best_table + locals. *)
    Prefix.Table.clear s.adj_out;
    List.concat_map (fun p -> refresh_best t ~now p) (Prefix.Set.elements affected)
  end

let damping_pending t = Damp_tbl.length t.damp <> 0

let session_up t ~now ~neighbor =
  let s = session t neighbor in
  if not s.down then []
  else begin
    s.down <- false;
    let all =
      Prefix.Table.fold (fun p _ acc -> Prefix.Set.add p acc) t.best_table Prefix.Set.empty
      |> fun set -> Prefix.Table.fold (fun p _ acc -> Prefix.Set.add p acc) t.locals set
    in
    if damping_pending t then
      (* With damping state live, re-running the decision process can
         lazily lift suppressions and move bests — keep the full refresh
         so that timing is unchanged. *)
      List.concat_map (fun p -> refresh_best ~force_sync:true t ~now p)
        (Prefix.Set.elements all)
    else begin
      (* No damping: nothing about the loc-RIB moved while the session was
         down that isn't already in best_table, and session_down cleared
         this neighbor's adj-RIB-out — so the only possible updates are
         announcements of current state toward the revived neighbor.
         Same output, without an all-neighbors sync per prefix. *)
      List.filter_map
        (fun p ->
          let local = Prefix.Table.find_opt t.locals p in
          let best = Prefix.Table.find_opt t.best_table p in
          match desired t s ~prefix:p local best None with
          | Some d ->
              Prefix.Table.replace s.adj_out p d;
              Some (neighbor, Announce d)
          | None -> None)
        (Prefix.Set.elements all)
    end
  end

let refresh_prefix t ~prefix =
  (* Forget what was last sent so [sync_exports] re-emits the current
     desired announcement even when it is unchanged: the receiving side
     may have flushed or lost it (session reset, filtered update), which
     the diff against our own adj-RIB-out cannot see. *)
  Array.iter (fun s -> if not s.down then Prefix.Table.remove s.adj_out prefix) t.sessions;
  sync_exports t prefix

let best t prefix = Prefix.Table.find_opt t.best_table prefix
let fib_lookup t ip = Prefix_trie.lookup t.fib ip
let fib_find t ip = Prefix_trie.find_longest t.fib ip

let prefixes t =
  Prefix.Table.fold (fun p _ acc -> p :: acc) t.best_table [] |> List.sort_uniq Prefix.compare

let originated t =
  Prefix.Table.fold (fun p _ acc -> p :: acc) t.locals [] |> List.sort_uniq Prefix.compare

let reevaluate t ~now prefix = refresh_best t ~now prefix

let suppressed_candidates t prefix =
  Damp_tbl.fold
    (fun (p, neighbor) state acc ->
      if Prefix.equal p prefix && state.suppressed then neighbor :: acc else acc)
    t.damp []
  |> List.sort Asn.compare
