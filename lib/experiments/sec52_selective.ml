open Net
open Workloads

type result = {
  feeds_tested : int;
  fraction_reverse : float;
  fraction_forward : float;
  undisturbed_ok : bool;
}

let paper_fraction_reverse = 0.73
let paper_fraction_forward = 0.90

let first_hop_of mux peer =
  match
    Bgp.Network.best_route mux.Scenarios.bed.Scenarios.net peer Scenarios.production_prefix
  with
  | None -> None
  | Some entry -> Bgp.As_path.first_hop entry.Bgp.Route.ann.Bgp.Route.path

(* Can selective poisoning move [peer] off its current first-hop link
   while keeping it routed? Try withholding the poison from one provider
   at a time. Each attempt after the first restores the baseline before
   poisoning; the last attempt's poison is left in place, so [mux] is
   spent. *)
let reverse_avoidable_for mux ~peer =
  let net = mux.Scenarios.bed.Scenarios.net in
  let plan = mux.Scenarios.plan in
  match first_hop_of mux peer with
  | None -> None
  | Some original_next_hop ->
      let poisoned = ref false in
      let try_via unpoisoned_provider =
        if !poisoned then begin
          Lifeguard.Remediate.unpoison net plan;
          Bgp.Network.run_until_quiet net
        end;
        poisoned := true;
        Lifeguard.Remediate.selective_poison net plan ~target:peer
          ~poisoned_via:
            (List.filter
               (fun p -> not (Asn.equal p unpoisoned_provider))
               mux.Scenarios.providers);
        Bgp.Network.run_until_quiet net;
        match first_hop_of mux peer with
        | Some nh -> not (Asn.equal nh original_next_hop)
        | None -> false
      in
      Some (List.exists try_via mux.Scenarios.providers)

(* Forward diversity: if the last AS link before [dst] on the current
   forward path failed silently, could the origin reach [dst] via a
   different provider? *)
let forward_avoidable_for mux ~dst =
  let bed = mux.Scenarios.bed in
  let graph = bed.Scenarios.graph in
  let walk =
    Dataplane.Forward.walk bed.Scenarios.net bed.Scenarios.failures
      ~src:mux.Scenarios.origin
      ~dst:(Dataplane.Forward.probe_address bed.Scenarios.net dst)
  in
  match List.rev (Dataplane.Forward.as_path_of_walk walk) with
  | last :: penultimate :: _ when Asn.equal last dst ->
      (* A path from some provider to dst that avoids the penultimate AS
         routes around the failed link. *)
      Some
        (List.exists
           (fun provider ->
             Topology.Splice.policy_reachable graph ~src:provider ~dst
               ~avoiding:(Asn.Set.singleton penultimate))
           mux.Scenarios.providers)
  | _ -> None

(* Sanity: selectively poisoning one feed must not disturb peers not
   routing through it. Poisons [mux] and leaves the poison in place:
   [run] captures its template before calling this. *)
let undisturbed_ok mux ~feeds =
  let net = mux.Scenarios.bed.Scenarios.net in
  match feeds with
  | [] -> true
  | target :: _ ->
      let others =
        List.filter
          (fun p ->
            (not (Asn.equal p target))
            &&
            match Bgp.Network.best_route net p Scenarios.production_prefix with
            | Some entry ->
                not
                  (Bgp.As_path.traverses ~origin:mux.Scenarios.origin ~target
                     entry.Bgp.Route.ann.Bgp.Route.path)
            | None -> false)
          mux.Scenarios.feeds
      in
      let before = List.map (fun p -> (p, first_hop_of mux p)) others in
      Lifeguard.Remediate.selective_poison net mux.Scenarios.plan ~target
        ~poisoned_via:(List.tl mux.Scenarios.providers);
      Bgp.Network.run_until_quiet net;
      List.for_all (fun (p, nh) -> first_hop_of mux p = nh) before

(* The forward walk targets the feed's probe address, so only that
   feed's infrastructure prefix needs announcing. Converging it after the
   baseline rather than before leaves every loc-RIB as it is in a fresh
   [Endpoints_only [feed]] world (test_workloads pins this). *)
(* lint: allow LG-DEAD-EXPORT (seam: test_workloads.ml's fork oracle) *)
let feed_world template ~feed =
  let mux = Template.fork template in
  let net = mux.Scenarios.bed.Scenarios.net in
  Dataplane.Forward.announce_infrastructure_for net [ feed ];
  Bgp.Network.run_until_quiet ~timeout:36000.0 net;
  mux

let run ~ases ~max_feeds ~jobs ~seed () =
  (* Scout world (control-plane only): pick the feeds and run the
     undisturbed-peers sanity check, after taking the template the
     trials fork. The scout is done with before the trials start, so it
     is not live while they fork. *)
  let template, feeds, undisturbed_ok =
    let mux = Poisoning.mux ~ases ~seed () in
    Poisoning.converge_baseline mux;
    let template = Template.capture mux in
    (* Feed ASes that can be poisoned at all: transit or multi-homed, not
       the origin's own providers. *)
    let feeds =
      List.filter
        (fun f -> not (List.exists (Asn.equal f) mux.Scenarios.providers))
        mux.Scenarios.feeds
      |> List.filteri (fun i _ -> i < max_feeds)
    in
    (template, feeds, undisturbed_ok mux ~feeds)
  in
  (* Per-feed trial in its own world. The reverse measurement is pure
     control plane. Forward is measured first, against the undisturbed
     baseline, because the reverse measurement leaves a poison in place. *)
  let trial feed () =
    let mux = feed_world template ~feed in
    let fwd = forward_avoidable_for mux ~dst:feed in
    let rev = reverse_avoidable_for mux ~peer:feed in
    (rev, fwd)
  in
  let outcomes = Runner.run_trials ~jobs (List.map (fun f -> trial f) feeds) in
  let reverse_results = List.filter_map fst outcomes in
  let forward_results = List.filter_map snd outcomes in
  let frac l =
    if l = [] then 0.0
    else float_of_int (List.length (List.filter Fun.id l)) /. float_of_int (List.length l)
  in
  {
    feeds_tested = List.length reverse_results;
    fraction_reverse = frac reverse_results;
    fraction_forward = frac forward_results;
    undisturbed_ok;
  }

let to_tables r =
  let t =
    Stats.Table.create ~title:"Sec 5.2 selective poisoning (paper vs measured)"
      ~columns:[ "metric"; "paper"; "measured" ]
  in
  Stats.Table.add_rows t
    [
      [ "feed ASes tested"; "114"; Stats.Table.cell_int r.feeds_tested ];
      [
        "reverse: first-hop link avoidable";
        Stats.Table.cell_pct paper_fraction_reverse;
        Stats.Table.cell_pct r.fraction_reverse;
      ];
      [
        "forward: last link avoidable via another provider";
        Stats.Table.cell_pct paper_fraction_forward;
        Stats.Table.cell_pct r.fraction_forward;
      ];
      [
        "unrelated peers undisturbed";
        "yes (33/33 RIPE peers)";
        (if r.undisturbed_ok then "yes" else "NO");
      ];
    ];
  [ t ]
