(* The bucket's numbers sit in a record of floats only, which OCaml
   stores flat: a refill or an admission writes its doubles in place,
   with no boxed float allocated and no write barrier. *)
type level = { rate : float; burst : float; mutable tokens : float; mutable updated : float }

type t = { level : level; mutable granted : int; mutable denied : int }

let create ~rate ~burst () =
  if rate <= 0.0 then invalid_arg "Budget.create: rate must be positive";
  if burst < 1.0 then invalid_arg "Budget.create: burst must be at least 1";
  { level = { rate; burst; tokens = burst; updated = 0.0 }; granted = 0; denied = 0 }

(* Lazy refill: tokens accrue linearly with simulation time, capped at the
   burst size; the bucket never needs its own timer. *)
let refill l ~now =
  if now > l.updated then begin
    let tokens = l.tokens +. ((now -. l.updated) *. l.rate) in
    l.tokens <- (if tokens > l.burst then l.burst else tokens);
    l.updated <- now
  end

(* Take [cost] tokens if available; refusal consumes nothing. *)
let admit t ~now ~cost =
  if cost < 0 then invalid_arg "Budget.admit: negative cost";
  let l = t.level in
  refill l ~now;
  let c = float_of_int cost in
  if l.tokens >= c then begin
    l.tokens <- l.tokens -. c;
    t.granted <- t.granted + cost;
    true
  end
  else begin
    t.denied <- t.denied + cost;
    false
  end

let granted t = t.granted
let denied t = t.denied

type scheduler = { global : t }

let scheduler ~global () = { global }

(* Every vantage point draws on the one global bucket. *)
let admit_vp s ~vp:_ ~now ~cost = admit s.global ~now ~cost

(* Token levels are controller state the world cannot reconstruct, so
   the snapshot digest covers them: a replay that admitted different
   probes shows up at the next mark. Every mutable field read is
   syntactically in [capture]'s body — the LG-ROB-SNAPSHOT contract. *)
let capture s =
  let b = s.global in
  Printf.sprintf "bucket global %s %s %d %d\n" (Recover.Record.float_field b.level.tokens)
    (Recover.Record.float_field b.level.updated) b.granted b.denied

let scheduler_granted s = granted s.global
let scheduler_denied s = denied s.global
