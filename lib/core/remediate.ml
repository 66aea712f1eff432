open Net

type plan = {
  origin : Asn.t;
  production : Prefix.t;
  sentinel : Prefix.t option;
}

(* Baseline prepending: 3 copies give [O-O-O]. *)
let prepend_copies = 3

let plan ?sentinel ~origin ~production () =
  (match sentinel with
  | Some s ->
      if not (Prefix.contains_prefix ~outer:s ~inner:production) then
        invalid_arg "Remediate.plan: sentinel must contain the production prefix";
      if Prefix.length s >= Prefix.length production then
        invalid_arg "Remediate.plan: sentinel must be less specific than production"
  | None -> ());
  { origin; production; sentinel }

let sentinel_unused_address t =
  match t.sentinel with
  | None -> None
  | Some s ->
      (* Scan the sentinel's halves for space outside production; the
         first address of the uncovered half serves as the probe source. *)
      let rec find prefix =
        if not (Prefix.contains_prefix ~outer:prefix ~inner:t.production) then
          Some (Prefix.first_address prefix)
        else begin
          match Prefix.split prefix with
          | None -> None
          | Some (low, high) ->
              if Prefix.contains_prefix ~outer:low ~inner:t.production then
                Some (Prefix.first_address high)
              else if Prefix.contains_prefix ~outer:high ~inner:t.production then
                Some (Prefix.first_address low)
              else find low
        end
      in
      if Prefix.equal s t.production then None else find s

let baseline_path t = Bgp.As_path.prepended ~origin:t.origin ~copies:prepend_copies

let announce_sentinel net t =
  match t.sentinel with
  | None -> ()
  | Some s ->
      Bgp.Network.announce net ~origin:t.origin ~prefix:s
        ~per_neighbor:(fun _ -> Some (Bgp.As_path.plain ~origin:t.origin))
        ()

let announce_baseline net t =
  announce_sentinel net t;
  let path = baseline_path t in
  Bgp.Network.announce net ~origin:t.origin ~prefix:t.production
    ~per_neighbor:(fun _ -> Some path)
    ()

let poison net t ~target =
  let path = Bgp.As_path.poisoned ~origin:t.origin ~poison:target in
  Bgp.Network.announce net ~origin:t.origin ~prefix:t.production
    ~per_neighbor:(fun _ -> Some path)
    ()

let selective_poison net t ~target ~poisoned_via =
  let poisoned = Bgp.As_path.poisoned ~origin:t.origin ~poison:target in
  let baseline = baseline_path t in
  Bgp.Network.announce net ~origin:t.origin ~prefix:t.production
    ~per_neighbor:(fun neighbor ->
      if List.exists (Asn.equal neighbor) poisoned_via then Some poisoned else Some baseline)
    ()

let reannounce net t = Bgp.Network.refresh net ~origin:t.origin ~prefix:t.production

let unpoison net t =
  let path = baseline_path t in
  Bgp.Network.announce net ~origin:t.origin ~prefix:t.production
    ~per_neighbor:(fun _ -> Some path)
    ()

let is_recovered env t ~through ~targets =
  let net = env.Dataplane.Probe.net in
  let probe_targets = if targets = [] then [ through ] else targets @ [ through ] in
  let src_ip =
    match sentinel_unused_address t with
    | Some ip -> ip
    | None -> Prefix.nth_address t.production 1
  in
  List.exists
    (fun target ->
      Dataplane.Probe.ping_from env ~src:t.origin ~src_ip
        ~dst:(Dataplane.Forward.probe_address net target))
    probe_targets
