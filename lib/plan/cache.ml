open Net
open Lifeguard

let m_hits = Obs.Metrics.counter "plan.hits"
let m_misses = Obs.Metrics.counter "plan.misses"
let m_invalidations = Obs.Metrics.counter "plan.invalidations"
let m_demotions = Obs.Metrics.counter "plan.demotions"

type t = {
  config : Decide.config;
  origin : Asn.t;
  mutable plans : Plan_store.t;
  mutable demoted : Asn.Set.t;
  mutable demotion_log : (Asn.t * string) list;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable demotions : int;
}

let create ?(seed = Plan_store.empty) ~config ~origin ~paths:_ () =
  {
    config;
    origin;
    plans = seed;
    demoted = Asn.Set.empty;
    demotion_log = [];
    hits = 0;
    misses = 0;
    invalidations = 0;
    demotions = 0;
  }

(* Drop every plan that poisons [blamed]. *)
let drop_poisons t blamed =
  t.plans <-
    Plan_store.filter
      (fun ~target:_ ~cls remedy ->
        not (Plan_store.poisons remedy && Asn.equal cls.Failure_class.blamed blamed))
      t.plans

let demote t ~poison ~reason =
  if not (Asn.Set.mem poison t.demoted) then begin
    t.demoted <- Asn.Set.add poison t.demoted;
    t.demotion_log <- (poison, reason) :: t.demotion_log;
    t.demotions <- t.demotions + 1;
    Obs.Metrics.incr m_demotions
  end;
  drop_poisons t poison

let trace_lookup t ~now ~target ?cls ~result () =
  if Obs.Trace.on () then
    Obs.Trace.event ~ts:now ~span:"plan.lookup"
      ([
         ("target", Obs.Trace.Str (Asn.to_string target));
         ("result", Obs.Trace.Str result);
         ("size", Obs.Trace.Int (Plan_store.cardinal t.plans));
       ]
      @
      match cls with
      | None -> []
      | Some cls -> [ ("class", Obs.Trace.Str (Failure_class.to_string cls)) ])

let miss t ~now ~target ?cls ~result () =
  t.misses <- t.misses + 1;
  Obs.Metrics.incr m_misses;
  trace_lookup t ~now ~target ?cls ~result ();
  None

let lookup t graph ~now ~target ~diagnosis ~outage_age ~breaker_open =
  match Failure_class.of_diagnosis diagnosis with
  | None -> miss t ~now ~target ~result:"unplannable" ()
  | Some cls ->
      if Asn.Set.mem cls.Failure_class.blamed t.demoted then
        miss t ~now ~target ?cls:(Some cls) ~result:"demoted" ()
      else begin
        match Plan_store.find t.plans ~target ~cls with
        | None ->
            (* Demand-plan the class the offline sweep missed: this
               round still computes fresh (and counts as a miss), but
               the remedy is in the map now, so the next round — often
               the very next age-gate recheck — is served from plan. *)
            t.plans <-
              Plan_store.add t.plans ~target ~cls
                (Planner.remedy_for_class graph ~origin:t.origin ~target ~cls);
            miss t ~now ~target ?cls:(Some cls) ~result:"miss" ()
        | Some remedy ->
            if
              Plan_store.poisons remedy
              && breaker_open cls.Failure_class.blamed
            then begin
              (* A plan against a breaker-open AS must not be served:
                 drop every plan poisoning it and fall through to the
                 fresh decision, which refuses at the breaker the same
                 way. *)
              drop_poisons t cls.Failure_class.blamed;
              t.invalidations <- t.invalidations + 1;
              Obs.Metrics.incr m_invalidations;
              miss t ~now ~target ?cls:(Some cls) ~result:"breaker" ()
            end
            else begin
              let bit = Plan_store.feasible remedy in
              let verdict =
                Decide.decide
                  ~feasible:(fun ~src:_ ~avoid:_ -> bit)
                  t.config graph ~origin:t.origin ~diagnosis ~outage_age
              in
              t.hits <- t.hits + 1;
              Obs.Metrics.incr m_hits;
              trace_lookup t ~now ~target ?cls:(Some cls) ~result:"hit" ();
              Some verdict
            end
      end

(* Deterministic one-line rendering of the cache's mutable state for the
   snapshot digest: size, counters, demotion set and log. Opaque to
   recovery (a resumed run rebuilds the cache by re-execution); its job
   is to make cache drift visible in snapshot comparisons. *)
let capture t =
  let demoted =
    Asn.Set.elements t.demoted |> List.map Asn.to_string |> String.concat ","
  in
  let dlog =
    List.rev t.demotion_log
    |> List.map (fun (a, reason) ->
           Asn.to_string a ^ ":" ^ String.map (fun c -> if c = ' ' then '_' else c) reason)
    |> String.concat ","
  in
  Printf.sprintf "size=%d hits=%d misses=%d invalidations=%d demotions=%d demoted=%s log=%s"
    (Plan_store.cardinal t.plans) t.hits t.misses t.invalidations t.demotions demoted dlog

let hits t = t.hits
let misses t = t.misses
let invalidations t = t.invalidations
let demotions t = t.demotions
