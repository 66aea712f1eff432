open Net
open Workloads

type result = {
  outages : int;
  fraction_all : float;
  long_outages : int;
  fraction_long : float;
  persistence : float;
}

let paper_fraction_all = 0.49
let paper_fraction_long = 0.83
let paper_persistence = 0.98

(* The observed mesh: AS paths between every ordered pair of sites. *)
let mesh_paths bed =
  let open Scenarios in
  let sites = bed.vantage_points in
  List.concat_map
    (fun src ->
      List.filter_map
        (fun dst ->
          if Asn.equal src dst then None
          else begin
            let walk =
              Dataplane.Forward.walk bed.net bed.failures ~src
                ~dst:(Dataplane.Forward.probe_address bed.net dst)
            in
            match walk.Dataplane.Forward.outcome with
            | Dataplane.Forward.Delivered ->
                Some (Dataplane.Forward.as_path_of_walk walk)
            | _ -> None
          end)
        sites)
    sites

let run ~ases ~outage_count ~seed () =
  let bed = Scenarios.planetlab ~ases ~sites:24 ~seed () in
  let rng = Prng.create ~seed:(seed + 4) in
  let paths = mesh_paths bed in
  let tuples = Topology.Splice.Tuples.of_paths paths in
  let sites = Array.of_list bed.Scenarios.vantage_points in
  let graph = bed.Scenarios.graph in
  let search = Topology.Splice.context () in
  let outages = ref 0 and with_alt = ref 0 in
  let long_outages = ref 0 and long_with_alt = ref 0 in
  let persisted = ref 0 and persistence_cases = ref 0 in
  (* Hour-long outages are ~2% of the mix; stratify with extra forced-long
     samples (which feed only the long-outage statistics) so that row has
     statistical weight. *)
  let long_extra = outage_count / 3 in
  for i = 1 to outage_count + long_extra do
    let forced_long = i > outage_count in
    let src = Prng.pick rng sites in
    let dst = ref (Prng.pick rng sites) in
    while Asn.equal !dst src do
      dst := Prng.pick rng sites
    done;
    let dst = !dst in
    let duration =
      if forced_long then
        (* Sample the heavy-tailed component directly, shifted past the
           hour mark (cheaper than rejection-sampling the 2% tail). *)
        3600.0 +. Prng.Dist.pareto rng ~shape:0.70 ~scale:150.0
      else Outage_gen.duration rng
    in
    let is_long = duration >= 3600.0 in
    (* Failure site: a transit AS on the live path. The paper found that
       long-lasting failures concentrate in transit networks with
       alternatives around them; bias long failures toward higher-degree
       hops accordingly. *)
    let walk =
      Dataplane.Forward.walk bed.Scenarios.net bed.Scenarios.failures ~src
        ~dst:(Dataplane.Forward.probe_address bed.Scenarios.net dst)
    in
    let path = Dataplane.Forward.as_path_of_walk walk in
    let interior =
      match path with
      | [] | [ _ ] | [ _; _ ] -> []
      | _ :: rest -> List.filteri (fun i _ -> i < List.length rest - 1) rest
    in
    match interior with
    | [] -> ()
    | _ ->
        (* Long-lasting failures concentrate in well-connected transit
           cores (with alternatives around them); short flaps skew toward
           sparsely-connected hops near the edges. *)
        let weighted_pick weight_of =
          let weights = List.map weight_of interior in
          let total = List.fold_left ( +. ) 0.0 weights in
          let target = Prng.float rng *. total in
          let rec pick acc = function
            | [ (a, _) ] -> a
            | (a, w) :: rest -> if acc +. w >= target then a else pick (acc +. w) rest
            | [] -> assert false
          in
          pick 0.0 (List.combine interior weights)
        in
        let degree a = float_of_int (Topology.As_graph.degree graph a) in
        let failed_as =
          if is_long then weighted_pick (fun a -> degree a ** 2.0)
          else weighted_pick (fun a -> 1.0 /. (degree a ** 2.0))
        in
        if not forced_long then incr outages;
        if is_long then incr long_outages;
        (* Paths from the source and into the destination that were
           observed in the mesh and do not use the failed AS. *)
        let from_src =
          List.filter (fun p -> match p with a :: _ -> Asn.equal a src | [] -> false) paths
        in
        let to_dst =
          List.filter
            (fun p -> match List.rev p with a :: _ -> Asn.equal a dst | [] -> false)
            paths
        in
        let spliced =
          Topology.Splice.splice_around ~from_src ~to_dst ~tuples ~avoid:failed_as ~dst
        in
        let found = Option.is_some spliced in
        if found then begin
          if not forced_long then incr with_alt;
          if is_long then incr long_with_alt;
          (* Persistence: does the spliced path also avoid the failed AS
             under the ground-truth policy check (it will keep working for
             the outage's whole life since our failures are stable)? *)
          incr persistence_cases;
          match spliced with
          | Some p ->
              if
                Topology.Splice.policy_reachable search graph ~src ~dst
                  ~avoiding:(Asn.Set.singleton failed_as)
                && not (List.exists (Asn.equal failed_as) p)
              then incr persisted
          | None -> ()
        end
  done;
  let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  {
    outages = !outages;
    fraction_all = frac !with_alt !outages;
    long_outages = !long_outages;
    fraction_long = frac !long_with_alt !long_outages;
    persistence = frac !persisted !persistence_cases;
  }

let to_tables r =
  let t =
    Stats.Table.create ~title:"Sec 2.2 alternate policy-compliant paths (paper vs measured)"
      ~columns:[ "metric"; "paper"; "measured" ]
  in
  Stats.Table.add_rows t
    [
      [ "outages examined"; "~15000"; Stats.Table.cell_int r.outages ];
      [
        "alternate path exists (all)";
        Stats.Table.cell_pct paper_fraction_all;
        Stats.Table.cell_pct r.fraction_all;
      ];
      [ "outages >= 1 h"; "-"; Stats.Table.cell_int r.long_outages ];
      [
        "alternate path exists (>= 1 h)";
        Stats.Table.cell_pct paper_fraction_long;
        Stats.Table.cell_pct r.fraction_long;
      ];
      [
        "alternates persist through outage";
        Stats.Table.cell_pct paper_persistence;
        Stats.Table.cell_pct r.persistence;
      ];
    ];
  [ t ]
