open Net

type t = {
  rate : float;
  burst : float;
  mutable tokens : float;
  mutable updated : float;
  mutable granted : int;
  mutable denied : int;
}

let create ~rate ~burst () =
  if rate <= 0.0 then invalid_arg "Budget.create: rate must be positive";
  if burst < 1.0 then invalid_arg "Budget.create: burst must be at least 1";
  { rate; burst; tokens = burst; updated = 0.0; granted = 0; denied = 0 }

(* Lazy refill: tokens accrue linearly with simulation time, capped at the
   burst size; the bucket never needs its own timer. *)
let refill t ~now =
  if now > t.updated then begin
    t.tokens <- Float.min t.burst (t.tokens +. ((now -. t.updated) *. t.rate));
    t.updated <- now
  end

let admit t ~now ~cost =
  if cost < 0 then invalid_arg "Budget.admit: negative cost";
  refill t ~now;
  let c = float_of_int cost in
  if t.tokens >= c then begin
    t.tokens <- t.tokens -. c;
    t.granted <- t.granted + cost;
    true
  end
  else begin
    t.denied <- t.denied + cost;
    false
  end

let granted t = t.granted
let denied t = t.denied

type scheduler = {
  global : t;
  per_vp_rate : float;
  per_vp_burst : float;
  vps : (Asn.t, t) Hashtbl.t;
}

let scheduler ?(per_vp_rate = infinity) ?(per_vp_burst = infinity) ~global () =
  { global; per_vp_rate; per_vp_burst; vps = Hashtbl.create 8 }

let vp_bucket s vp =
  match Hashtbl.find_opt s.vps vp with
  | Some b -> b
  | None ->
      let b =
        {
          rate = s.per_vp_rate;
          burst = s.per_vp_burst;
          tokens = s.per_vp_burst;
          updated = 0.0;
          granted = 0;
          denied = 0;
        }
      in
      Hashtbl.replace s.vps vp b;
      b

(* Both caps must admit; an unlimited per-VP cap short-circuits so the
   common (no per-VP limit) case touches one bucket. *)
let admit_vp s ~vp ~now ~cost =
  if s.per_vp_rate = infinity && s.per_vp_burst = infinity then admit s.global ~now ~cost
  else begin
    let b = vp_bucket s vp in
    refill b ~now;
    if b.tokens < float_of_int cost then begin
      b.denied <- b.denied + cost;
      false
    end
    else if admit s.global ~now ~cost then begin
      b.tokens <- b.tokens -. float_of_int cost;
      b.granted <- b.granted + cost;
      true
    end
    else false
  end

(* Token levels are controller state the world cannot reconstruct, so
   the snapshot digest covers them: a replay that admitted different
   probes shows up at the next mark. The [bucket] helper lives inside
   [capture] so every mutable field read is syntactically in its body —
   the LG-ROB-SNAPSHOT contract. *)
let capture s =
  let bucket name (b : t) =
    Printf.sprintf "bucket %s %s %s %d %d\n" name (Recover.Record.float_field b.tokens)
      (Recover.Record.float_field b.updated) b.granted b.denied
  in
  let vps =
    Hashtbl.fold (fun vp b acc -> (vp, b) :: acc) s.vps []
    |> List.sort (fun (a, _) (b, _) -> Asn.compare a b)
    |> List.map (fun (vp, b) -> bucket ("vp:" ^ string_of_int (Asn.to_int vp)) b)
  in
  String.concat "" (bucket "global" s.global :: vps)

let scheduler_granted s = granted s.global

(* A request is denied by exactly one stage: a per-VP refusal never reaches
   the global bucket, and a global refusal leaves the VP bucket untouched —
   so summing the two never double-counts. *)
let scheduler_denied s = Hashtbl.fold (fun _ b acc -> acc + b.denied) s.vps (denied s.global)
