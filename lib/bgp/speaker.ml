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
      (* The loc-RIB announcement ([self] plain path), built once at
         [originate] so every [compute_best] reuses the same physical
         value and the refresh change-check settles on [==]. *)
}

module Damp_key = struct
  type t = Prefix.t * Asn.t

  let equal (p1, n1) (p2, n2) = Prefix.equal p1 p2 && Asn.equal n1 n2
  let hash (p, n) = (Prefix.hash p lxor (Asn.hash n * 0x9E3779B1)) land max_int
end

module Damp_tbl = Hashtbl.Make (Damp_key)

(* Everything the speaker holds for one prefix. Slots are found by the
   prefix's dense id in the speaker's [Path_store], and the per-neighbor
   RIBs are arrays indexed by [session.ix], so the update path does no
   prefix- or neighbor-keyed hashing. An adj-RIB-in cell holds its entry
   unboxed, [Route.no_route] when the session has none. *)
type slot = {
  prefix : Prefix.t;
  mutable local : origination option;
  mutable best : Route.entry option;  (** The loc-RIB entry. *)
  mutable export : Route.announcement option;
      (** {!best_export} of [best] once something has built it; [None]
          again whenever [best] is replaced. *)
  mutable fib : Route.entry option;
      (** The data-plane entry: [best] once {!install_fib} has caught up. *)
  ins : Route.entry array;  (** Adj-RIB-in: candidate per session. *)
  outs : Route.announcement option array;  (** Adj-RIB-out: last sent per session. *)
  mutable stamp : int;  (** [changes] at [best]'s latest change; [0]: never. *)
}

(* One record per directed session, by ascending neighbor ASN. *)
type session = {
  asn : Asn.t;
  rel : Relationship.t;
  ix : int;
  peer : t;
  back : int;
  mutable down : bool;
  mutable pending : action array;
  mutable pending_n : int;
}

and t = {
  self : Asn.t;
  config : Policy.config;
  store : Path_store.t;
      (* The world's prefix ids: shared with every other speaker of the
         same [Network] (shard), never across worlds (share-nothing). *)
  mutable sessions : session array;
      (** By ascending neighbor ASN: the order of every export list, and
          what {!session}'s binary search relies on. Set by {!connect}. *)
  mutable last_sent : float array;
      (** By session: flat, so no session holds a boxed float. *)
  mutable slots : slot array;
      (** By prefix id, [vacant] where the prefix has no slot; grown on
          demand. *)
  vacant : slot;
      (** The filler of [slots]: never written, and told apart by [==].
          The speaker holds it, so a world copied with Marshal copies it
          together with the cells that point to it and the test still
          holds in the copy, which it would not for a module-level value. *)
  mutable loc_rib_size : int;  (** Slots with a [best]. *)
  fib_epoch : int ref;
      (** Bumped by every [install_fib]; shared by all speakers of a
          {!Network}, so one read tells whether any FIB in the world moved. *)
  changes : int ref;  (** Bumped by every loc-RIB change; shared like [fib_epoch]. *)
  mutable on_best_change : (now:float -> Prefix.t -> Route.entry option -> unit) option;
  mutable fib_commit : (Prefix.t -> Route.entry option -> unit) option;
  mutable damp : damp_state Damp_tbl.t option;
      (** Created on the first flap: only a damping config ever flaps. *)
  mutable reuse_scheduler : (delay:float -> Prefix.t -> unit) option;
}

and damp_state = { mutable penalty : float; mutable last : float; mutable suppressed : bool }

(* A slot with nothing in it, for [k] sessions. *)
let empty_slot prefix k =
  {
    prefix;
    local = None;
    best = None;
    export = None;
    fib = None;
    ins = Array.make k Route.no_route;
    outs = Array.make k None;
    stamp = 0;
  }

let create ?store ?fib_epoch ?changes ~asn ~config () =
  {
    self = asn;
    config;
    store = (match store with Some s -> s | None -> Path_store.create ());
    sessions = [||];
    last_sent = [||];
    slots = [||];
    vacant = empty_slot Route.no_route.Route.ann.Route.prefix 0;
    loc_rib_size = 0;
    fib_epoch = (match fib_epoch with Some e -> e | None -> ref 0);
    changes = (match changes with Some c -> c | None -> ref 0);
    on_best_change = None;
    fib_commit = None;
    damp = None;
    reuse_scheduler = None;
  }

let asn t = t.self
let sessions t = t.sessions
let last_sent t = t.last_sent
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
      let damp =
        match t.damp with
        | Some d -> d
        | None ->
            let d = Damp_tbl.create 16 in
            t.damp <- Some d;
            d
      in
      let key = (prefix, neighbor) in
      let state =
        match Damp_tbl.find_opt damp key with
        | Some s -> s
        | None ->
            let s = { penalty = 0.0; last = now; suppressed = false } in
            Damp_tbl.replace damp key s;
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
  match (t.config.Policy.damping, t.damp) with
  | None, _ | _, None -> false
  | Some cfg, Some damp -> begin
      match Damp_tbl.find_opt damp (prefix, neighbor) with
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

(* The position of neighbor [n] in [sessions], or [-1]: an int rather
   than an option, so a lookup allocates nothing. *)
let rec search sessions n lo hi =
  if lo >= hi then -1
  else begin
    let mid = (lo + hi) lsr 1 in
    match Asn.compare sessions.(mid).asn n with
    | 0 -> mid
    | c when c < 0 -> search sessions n (mid + 1) hi
    | _ -> search sessions n lo mid
  end

(* Whether [n] is a settlement-free peer: the Cogent quirk's question. *)
let is_peer sessions n =
  match search sessions n 0 (Array.length sessions) with
  | -1 -> false
  | i -> Relationship.equal sessions.(i).rel Relationship.Peer

let session t n =
  match search t.sessions n 0 (Array.length t.sessions) with
  | -1 ->
      invalid_arg
        (Printf.sprintf "Speaker %s: unknown neighbor %s" (Asn.to_string t.self)
           (Asn.to_string n))
  | i -> t.sessions.(i)

let connect speakers ~neighbors =
  let fail what a = invalid_arg ("Speaker.connect: " ^ what ^ " " ^ Asn.to_string a) in
  let table = Asn.Table.create 256 in
  List.iter
    (fun sp ->
      if Array.length sp.sessions > 0 || Array.length sp.slots > 0 then fail "in use:" sp.self;
      let by_asn (a, _) (b, _) = Asn.compare a b in
      Asn.Table.replace table sp.self (sp, Array.of_list (List.sort by_asn (neighbors sp.self))))
    speakers;
  Asn.Table.iter
    (fun self (sp, nbrs) ->
      let wire ix (n, rel) =
        let peer, theirs = try Asn.Table.find table n with Not_found -> fail "unknown" n in
        match Array.find_index (fun (m, _) -> Asn.equal m self) theirs with
        | Some back -> { asn = n; rel; ix; peer; back; down = false; pending = [||]; pending_n = 0 }
        | None -> fail "no way back from" n
      in
      sp.sessions <- Array.mapi wire nbrs;
      sp.last_sent <- Array.make (Array.length nbrs) neg_infinity)
    table

(* The prefix's slot, created (and [slots] grown) on first use. *)
let slot t prefix =
  let id = Path_store.prefix_id t.store prefix in
  let n = Array.length t.slots in
  if id >= n then begin
    let grown = Array.make (max (id + 1) (2 * n)) t.vacant in
    Array.blit t.slots 0 grown 0 n;
    t.slots <- grown
  end;
  let slot = t.slots.(id) in
  if slot != t.vacant then slot
  else begin
    let slot = empty_slot prefix (Array.length t.sessions) in
    t.slots.(id) <- slot;
    slot
  end

(* The prefix's slot, or [vacant] (no origination, no best, no FIB) if it
   has none; creates nothing. *)
let find_slot t prefix =
  match Path_store.find_prefix_id t.store prefix with
  | Some id when id < Array.length t.slots -> t.slots.(id)
  | Some _ | None -> t.vacant

(* The one FIB write. A loc-RIB change installs through the slot it
   already holds, so an update costs one prefix lookup, not two. *)
let install t slot entry =
  incr t.fib_epoch;
  slot.fib <- entry

let install_fib t prefix entry = install t (slot t prefix) entry

(* The slots satisfying [keep], in [Prefix.compare] order: every list the
   speaker builds across prefixes is in that order, never in id order.
   The store keeps its ids in that order, so this sorts nothing. *)
let sorted_slots t keep =
  let ids = Path_store.ordered_prefix_ids t.store in
  let acc = ref [] in
  for k = Array.length ids - 1 downto 0 do
    let id = ids.(k) in
    if id < Array.length t.slots then begin
      let s = t.slots.(id) in
      if s != t.vacant && keep s then acc := s :: !acc
    end
  done;
  !acc

(* Whether any route-flap damping records are live (suppressed or still
   decaying). While true, [session_up] uses its conservative slow path. *)
let damping_pending t =
  match t.damp with Some d -> Damp_tbl.length d <> 0 | None -> false

(* The loc-RIB best for a prefix: a local origination wins outright;
   otherwise the decision process over the adj-RIB-in candidates. *)
let compute_best t ~now slot =
  Obs.Metrics.incr m_decisions;
  match slot.local with
  | Some { local_ann; _ } -> Route.local_entry_of ~ann:local_ann ~self:t.self
  | None ->
      if not (damping_pending t) then Decision.best_in_array slot.ins
      else
        (* Damped candidates are ineligible until their penalty decays. *)
        Array.fold_left
          (fun acc e ->
            if
              Route.is_route e
              && (not (is_suppressed t ~now slot.prefix e.Route.neighbor))
              && Decision.compare_entries e acc > 0
            then e
            else acc)
          Route.no_route slot.ins

(* The announcement the loc-RIB best goes out as. It is the same toward
   every neighbor and changes only with [best], so the slot keeps it
   until [best] is replaced, and every neighbor receives this one value. *)
let best_export t slot entry =
  match slot.export with
  | Some _ as out -> out
  | None ->
      let out = Some (Policy.export_ann ~self:t.self ~entry) in
      slot.export <- out;
      out

(* Desired announcement toward session [s] for the slot's prefix, or
   None. *)
let desired t s slot =
  if s.down then None
  else begin
    match slot.local with
    | Some { per_neighbor; _ } -> begin
        match per_neighbor s.asn with
        | Some path -> Some (Route.announcement ~prefix:slot.prefix ~path)
        | None -> None
      end
    | None -> begin
        match slot.best with
        | None -> None
        | Some entry ->
            if Policy.export_allowed ~entry ~to_neighbor:s.asn ~to_rel:s.rel then
              best_export t slot entry
            else None
      end
  end

(* Diff desired exports against adj-RIB-out; mutate adj-RIB-out and return
   the updates to put on the wire, in neighbor order. *)
let sync_exports t slot =
  let prefix = slot.prefix in
  let updates = ref [] in
  for i = 0 to Array.length t.sessions - 1 do
    let s = t.sessions.(i) in
    let desired = desired t s slot in
    match (desired, slot.outs.(i)) with
    | None, None -> ()
    | Some d, Some c when Route.announcement_equal d c -> ()
    | Some d, _ ->
        slot.outs.(i) <- desired;
        updates := (i, Announce d) :: !updates
    | None, Some _ ->
        slot.outs.(i) <- None;
        updates := (i, Withdraw prefix) :: !updates
  done;
  List.rev !updates

(* [force_sync] matters when per-neighbor desired exports can move without
   the loc-RIB best changing: an origination change (the local best keeps
   its plain path while [per_neighbor] now says something else) or an
   explicit re-advertisement. The plain receive path skips the all-neighbor
   sync whenever the best is unchanged — with an unchanged loc-RIB, every
   desired export is unchanged too, so the old unconditional scan provably
   emitted nothing. *)
let refresh_best ?(force_sync = false) t ~now slot =
  let old_best = slot.best in
  let e = compute_best t ~now slot in
  let changed =
    match old_best with
    | None -> Route.is_route e
    | Some a ->
        (not (Route.is_route e))
        || (not (Route.announcement_equal a.Route.ann e.Route.ann))
        || not (Asn.equal a.Route.neighbor e.Route.neighbor)
  in
  if changed then begin
    (* Boxed only here: an unchanged best allocates nothing. *)
    let new_best = if Route.is_route e then Some e else None in
    (match (old_best, new_best) with
    | None, Some _ -> t.loc_rib_size <- t.loc_rib_size + 1
    | Some _, None -> t.loc_rib_size <- t.loc_rib_size - 1
    | _ -> ());
    slot.best <- new_best;
    slot.export <- None;
    incr t.changes;
    slot.stamp <- !(t.changes);
    Obs.Metrics.observe_max m_loc_rib t.loc_rib_size;
    (match t.fib_commit with
    | Some commit -> commit slot.prefix new_best
    | None -> install t slot new_best);
    match t.on_best_change with
    | Some f -> f ~now slot.prefix new_best
    | None -> ()
  end;
  if changed || force_sync then sync_exports t slot else []

let originate t ~now ~prefix ~per_neighbor =
  let local_ann = Route.announcement ~prefix ~path:(As_path.plain ~origin:t.self) in
  let slot = slot t prefix in
  slot.local <- Some { per_neighbor; local_ann };
  refresh_best ~force_sync:true t ~now slot

let stop_originating t ~now ~prefix =
  let slot = slot t prefix in
  slot.local <- None;
  refresh_best ~force_sync:true t ~now slot

let receive t ~now ~session action =
  let s = t.sessions.(session) in
  let from = s.asn in
  if s.down then []
  else begin
    match action with
    | Withdraw prefix ->
        let slot = slot t prefix in
        if Route.is_route slot.ins.(s.ix) then begin
          ignore (note_flap t ~now prefix from);
          slot.ins.(s.ix) <- Route.no_route
        end;
        refresh_best t ~now slot
    | Announce ann -> begin
        let prefix = ann.Route.prefix in
        let slot = slot t prefix in
        (* A changed announcement from a neighbor that already had a route
           is a flap. *)
        let previous = slot.ins.(s.ix) in
        if Route.is_route previous && not (Route.announcement_equal previous.Route.ann ann) then
          ignore (note_flap t ~now prefix from);
        match Policy.import t.config ~self:t.self ~peers:t.sessions ~is_peer ~rel:s.rel ann with
        | Policy.Rejected _ ->
            (* An update that fails import replaces (removes) whatever this
               neighbor previously announced for the prefix. *)
            slot.ins.(s.ix) <- Route.no_route;
            refresh_best t ~now slot
        | Policy.Accepted ->
            slot.ins.(s.ix) <-
              Route.make_entry ~ann ~neighbor:from ~rel:s.rel
                ~local_pref:(Policy.local_pref_for t.config ~self:t.self ~neighbor:from ~rel:s.rel)
                ~tiebreak:(Route.tiebreak_rank ~salt:(Asn.to_int t.self) from);
            refresh_best t ~now slot
      end
  end

let session_down t ~now ~neighbor =
  let s = session t neighbor in
  if s.down then []
  else begin
    s.down <- true;
    let i = s.ix in
    let affected =
      sorted_slots t (fun slot -> Route.is_route slot.ins.(i) || Option.is_some slot.local)
    in
    (* Drop the neighbor's routes, and clear its adj-RIB-out so a later
       session_up re-announces from scratch. *)
    Array.iter
      (fun slot ->
        if slot != t.vacant then begin
          slot.ins.(i) <- Route.no_route;
          slot.outs.(i) <- None
        end)
      t.slots;
    List.concat_map (refresh_best t ~now) affected
  end

let session_up t ~now ~neighbor =
  let s = session t neighbor in
  if not s.down then []
  else begin
    s.down <- false;
    let all = sorted_slots t (fun slot -> Option.is_some slot.best || Option.is_some slot.local) in
    if damping_pending t then
      (* With damping state live, re-running the decision process can
         lazily lift suppressions and move bests — keep the full refresh
         so that timing is unchanged. *)
      List.concat_map (refresh_best ~force_sync:true t ~now) all
    else
      (* No damping: nothing about the loc-RIB moved while the session was
         down that isn't already in the slots' bests, and session_down
         cleared this neighbor's adj-RIB-out — so the only possible
         updates are announcements of current state toward the revived
         neighbor. Same output, without an all-neighbors sync per prefix. *)
      List.filter_map
        (fun slot ->
          match desired t s slot with
          | Some d as out ->
              slot.outs.(s.ix) <- out;
              Some (s.ix, Announce d)
          | None -> None)
        all
  end

let refresh_prefix t ~prefix =
  (* Forget what was last sent so [sync_exports] re-emits the current
     desired announcement even when it is unchanged: the receiving side
     may have flushed or lost it (session reset, filtered update), which
     the diff against our own adj-RIB-out cannot see. *)
  let slot = slot t prefix in
  Array.iter (fun s -> if not s.down then slot.outs.(s.ix) <- None) t.sessions;
  sync_exports t slot

let best t prefix = (find_slot t prefix).best
let change_stamp t prefix = (find_slot t prefix).stamp

(* The FIB is the [fib] field of the slots, found through the world's
   prefix trie: the match is the most specific prefix covering the
   address whose slot at this speaker holds an entry. The reader below is
   a closed function of (speaker, prefix id) that returns the slot's own
   box ([vacant]'s is [None]), so a walk allocates nothing but what
   [fib_lookup] returns. An entry is installed for its own prefix, so
   [fib_lookup] reads the matched prefix off the entry. *)
let fib_at t id = if id < Array.length t.slots then t.slots.(id).fib else None
let fib_find t ip = Path_store.longest_match t.store ip fib_at t

let fib_lookup t ip =
  match fib_find t ip with Some e -> Some (e.Route.ann.Route.prefix, e) | None -> None

(* lint: allow LG-DEAD-EXPORT (oracle: test_dataplane.ml's FIB script) *)
let fib_entry t prefix = (find_slot t prefix).fib

(* lint: allow LG-DEAD-EXPORT (oracle: test_workloads.ml's loc-RIB dumps) *)
let prefixes t =
  List.map (fun slot -> slot.prefix) (sorted_slots t (fun slot -> Option.is_some slot.best))

let originated t =
  List.map (fun slot -> slot.prefix) (sorted_slots t (fun slot -> Option.is_some slot.local))

let reevaluate t ~now prefix = refresh_best t ~now (slot t prefix)

let suppressed_candidates t prefix =
  match t.damp with
  | None -> []
  | Some damp ->
      Damp_tbl.fold
        (fun (p, neighbor) state acc ->
          if Prefix.equal p prefix && state.suppressed then neighbor :: acc else acc)
        damp []
      |> List.sort Asn.compare
