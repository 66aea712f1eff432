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

type t = {
  self : Asn.t;
  config : Policy.config;
  store : Path_store.t;
      (* The world's interner: shared with every other speaker of the same
         [Network], never across worlds (share-nothing). *)
  neighbor_rel : Relationship.t Asn.Table.t;
  neighbor_list : (Asn.t * Relationship.t) list ref;
  peers_of_self : Asn.Set.t ref;
  down_sessions : unit Asn.Table.t;
  adj_in : Route.entry Asn.Table.t Prefix.Table.t;
      (** prefix -> (neighbor -> candidate route) *)
  neighbor_index : unit Prefix.Table.t Asn.Table.t;
      (** Reverse index of [adj_in]: neighbor -> prefixes it currently has a
          candidate for. Kept exactly in sync so [affected_prefixes] and
          [session_down] never fold the whole adj-RIB-in. *)
  locals : origination Prefix.Table.t;
  best_table : Route.entry Prefix.Table.t;
  mutable fib : Route.entry Prefix_trie.t;
  fib_epoch : int ref;
      (** Bumped by every [install_fib]; shared by all speakers of a
          {!Network}, so one read tells whether any FIB in the world moved. *)
  adj_out : Route.announcement Prefix.Table.t Asn.Table.t;
      (** Per-neighbor adj-RIB-out index: neighbor -> (prefix -> last sent).
          Keyed by neighbor first so [session_down] clears one sub-table
          instead of walking [best_table] + [locals]. *)
  mutable on_best_change : (now:float -> Prefix.t -> Route.entry option -> unit) option;
  mutable fib_commit : (Prefix.t -> Route.entry option -> unit) option;
  damp : damp_state Damp_tbl.t;
  mutable reuse_scheduler : (delay:float -> Prefix.t -> unit) option;
}

and damp_state = { mutable penalty : float; mutable last : float; mutable suppressed : bool }

let create ?store ?fib_epoch ~asn ~config ~neighbors () =
  let neighbor_rel = Asn.Table.create 16 in
  List.iter (fun (n, rel) -> Asn.Table.replace neighbor_rel n rel) neighbors;
  let peers =
    List.fold_left
      (fun acc (n, rel) ->
        if Relationship.equal rel Relationship.Peer then Asn.Set.add n acc else acc)
      Asn.Set.empty neighbors
  in
  {
    self = asn;
    config;
    store = (match store with Some s -> s | None -> Path_store.create ());
    neighbor_rel;
    neighbor_list = ref neighbors;
    peers_of_self = ref peers;
    down_sessions = Asn.Table.create 4;
    adj_in = Prefix.Table.create 64;
    neighbor_index = Asn.Table.create 16;
    locals = Prefix.Table.create 4;
    best_table = Prefix.Table.create 16;
    fib = Prefix_trie.empty;
    fib_epoch = (match fib_epoch with Some e -> e | None -> ref 0);
    adj_out = Asn.Table.create 16;
    on_best_change = None;
    fib_commit = None;
    damp = Damp_tbl.create 16;
    reuse_scheduler = None;
  }

let asn t = t.self
let config t = t.config
let path_store t = t.store
let neighbors t = !(t.neighbor_list)
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
  | Some e -> t.fib <- Prefix_trie.add prefix e t.fib
  | None -> t.fib <- Prefix_trie.remove prefix t.fib

let session_is_down t n = Asn.Table.mem t.down_sessions n

let rel_of t n =
  match Asn.Table.find_opt t.neighbor_rel n with
  | Some rel -> rel
  | None -> invalid_arg (Printf.sprintf "Speaker %s: unknown neighbor %s"
                           (Asn.to_string t.self) (Asn.to_string n))

let adj_in_table t prefix =
  match Prefix.Table.find_opt t.adj_in prefix with
  | Some table -> table
  | None ->
      let table = Asn.Table.create 8 in
      Prefix.Table.replace t.adj_in prefix table;
      table

let adj_out_for t neighbor =
  match Asn.Table.find_opt t.adj_out neighbor with
  | Some out -> out
  | None ->
      let out = Prefix.Table.create 32 in
      Asn.Table.replace t.adj_out neighbor out;
      out

let index_add t neighbor prefix =
  let tbl =
    match Asn.Table.find_opt t.neighbor_index neighbor with
    | Some tbl -> tbl
    | None ->
        let tbl = Prefix.Table.create 16 in
        Asn.Table.replace t.neighbor_index neighbor tbl;
        tbl
  in
  Prefix.Table.replace tbl prefix ()

let index_remove t neighbor prefix =
  match Asn.Table.find_opt t.neighbor_index neighbor with
  | Some tbl -> Prefix.Table.remove tbl prefix
  | None -> ()

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

(* Desired announcement toward one neighbor for a prefix, or None. *)
let desired_export t prefix neighbor =
  if session_is_down t neighbor then None
  else begin
    match Prefix.Table.find_opt t.locals prefix with
    | Some { per_neighbor; _ } -> begin
        match per_neighbor neighbor with
        | Some path ->
            Some (Path_store.intern_ann t.store (Route.announcement ~prefix ~path ()))
        | None -> None
      end
    | None -> begin
        match Prefix.Table.find_opt t.best_table prefix with
        | None -> None
        | Some entry ->
            if
              Policy.export_allowed t.config ~self:t.self ~entry ~to_neighbor:neighbor
                ~to_rel:(rel_of t neighbor)
            then
              Some (Path_store.intern_ann t.store (Policy.export_ann t.config ~self:t.self ~entry))
            else None
      end
  end

(* Diff desired exports against adj-RIB-out; mutate adj-RIB-out and return
   the updates to put on the wire. The best-route outgoing announcement is
   neighbor-independent, so it is rewritten and interned at most once per
   sync and shared by every permitted neighbor. *)
let sync_exports t prefix =
  let local = Prefix.Table.find_opt t.locals prefix in
  let best = Prefix.Table.find_opt t.best_table prefix in
  let best_out =
    lazy
      (match best with
      | None -> None
      | Some entry ->
          Some (Path_store.intern_ann t.store (Policy.export_ann t.config ~self:t.self ~entry)))
  in
  let desired n =
    if session_is_down t n then None
    else begin
      match local with
      | Some { per_neighbor; _ } -> begin
          match per_neighbor n with
          | Some path ->
              Some (Path_store.intern_ann t.store (Route.announcement ~prefix ~path ()))
          | None -> None
        end
      | None -> begin
          match best with
          | None -> None
          | Some entry ->
              if
                Policy.export_allowed t.config ~self:t.self ~entry ~to_neighbor:n
                  ~to_rel:(rel_of t n)
              then Lazy.force best_out
              else None
        end
    end
  in
  List.filter_map
    (fun (n, _) ->
      let out = adj_out_for t n in
      let desired = desired n in
      let current = Prefix.Table.find_opt out prefix in
      match (desired, current) with
      | None, None -> None
      | Some d, Some c when Route.announcement_equal d c -> None
      | Some d, _ ->
          Prefix.Table.replace out prefix d;
          Some (n, Announce d)
      | None, Some _ ->
          Prefix.Table.remove out prefix;
          Some (n, Withdraw prefix))
    (neighbors t)

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
      (Route.announcement ~prefix ~path:(As_path.plain ~origin:t.self) ())
  in
  Prefix.Table.replace t.locals prefix { per_neighbor; local_ann };
  refresh_best ~force_sync:true t ~now prefix

let stop_originating t ~now ~prefix =
  Prefix.Table.remove t.locals prefix;
  refresh_best ~force_sync:true t ~now prefix

let receive t ~now ~from action =
  if session_is_down t from then []
  else begin
    match action with
    | Withdraw prefix ->
        if Asn.Table.mem (adj_in_table t prefix) from then
          ignore (note_flap t ~now prefix from);
        Asn.Table.remove (adj_in_table t prefix) from;
        index_remove t from prefix;
        refresh_best t ~now prefix
    | Announce ann -> begin
        let ann = Path_store.intern_ann t.store ann in
        let prefix = ann.Route.prefix in
        (* A changed announcement from a neighbor that already had a route
           is a flap. *)
        (match Asn.Table.find_opt (adj_in_table t prefix) from with
        | Some previous
          when not (Route.announcement_equal previous.Route.ann ann) ->
            ignore (note_flap t ~now prefix from)
        | Some _ | None -> ());
        let rel = rel_of t from in
        match
          Policy.import t.config ~self:t.self ~peers_of_self:!(t.peers_of_self)
            ~neighbor:from ~rel ann
        with
        | Policy.Rejected _ ->
            (* An update that fails import replaces (removes) whatever this
               neighbor previously announced for the prefix. *)
            Asn.Table.remove (adj_in_table t prefix) from;
            index_remove t from prefix;
            refresh_best t ~now prefix
        | Policy.Accepted local_pref ->
            Asn.Table.replace (adj_in_table t prefix) from
              (Route.make_entry ~salt:(Asn.to_int t.self) ~ann ~neighbor:from
                 ~rel ~local_pref ~learned_at:now ());
            index_add t from prefix;
            refresh_best t ~now prefix
      end
  end

let affected_prefixes t neighbor =
  let from_adj =
    match Asn.Table.find_opt t.neighbor_index neighbor with
    | None -> Prefix.Set.empty
    | Some tbl -> Prefix.Table.fold (fun p () acc -> Prefix.Set.add p acc) tbl Prefix.Set.empty
  in
  Prefix.Table.fold (fun p _ acc -> Prefix.Set.add p acc) t.locals from_adj

let session_down t ~now ~neighbor =
  if session_is_down t neighbor then []
  else begin
    Asn.Table.replace t.down_sessions neighbor ();
    let affected = affected_prefixes t neighbor in
    (match Asn.Table.find_opt t.neighbor_index neighbor with
    | Some tbl ->
        Prefix.Table.iter (fun p () -> Asn.Table.remove (adj_in_table t p) neighbor) tbl;
        Asn.Table.remove t.neighbor_index neighbor
    | None -> ());
    (* Clear adj-RIB-out toward the dead session so a later session_up
       re-announces from scratch: one sub-table drop, not a walk of
       best_table + locals. *)
    Asn.Table.remove t.adj_out neighbor;
    List.concat_map (fun p -> refresh_best t ~now p) (Prefix.Set.elements affected)
  end

let damping_pending t = Damp_tbl.length t.damp <> 0

let session_up t ~now ~neighbor =
  if not (session_is_down t neighbor) then []
  else begin
    Asn.Table.remove t.down_sessions neighbor;
    let all =
      Prefix.Table.fold (fun p _ acc -> Prefix.Set.add p acc) t.best_table Prefix.Set.empty
      |> fun s -> Prefix.Table.fold (fun p _ acc -> Prefix.Set.add p acc) t.locals s
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
      let out = adj_out_for t neighbor in
      List.filter_map
        (fun p ->
          match desired_export t p neighbor with
          | Some d ->
              Prefix.Table.replace out p d;
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
  List.iter
    (fun (n, _) ->
      if not (session_is_down t n) then Prefix.Table.remove (adj_out_for t n) prefix)
    (neighbors t);
  sync_exports t prefix

let best t prefix = Prefix.Table.find_opt t.best_table prefix
let fib_lookup t ip = Prefix_trie.lookup ip t.fib
let fib_find t ip = Prefix_trie.find_longest ip t.fib

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
