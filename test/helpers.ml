(* Shared scaffolding for tests: small hand-built topologies and a
   convenience wrapper bundling engine + network + failures + probes. *)

open Net
open Topology

let asn = Asn.of_int
let ipv4 s = Option.get (Ipv4.of_string s)
let prefix = Prefix.of_string_exn

(* An AS path from a nearest-first list, built with the library's own
   [prepend]. *)
let as_path l = List.fold_right Bgp.As_path.prepend l Bgp.As_path.empty

(* The decision's oracle. A candidate is one route as the speaker of
   ASN [self] ranks it, in a record of the tests' own, so the oracle
   shares no type with the code it checks: its preference is
   [Policy.local_pref_for] of its session and its rank the neighbor's
   [Route.tiebreak_rank] under [self]. *)
type candidate = { from : Asn.t; path : Bgp.As_path.t; pref : int; rank : int }

let candidate ?(config = Bgp.Policy.default) ~self ~from ~rel path =
  {
    from;
    path;
    pref = Bgp.Policy.local_pref_for config ~self ~neighbor:from ~rel;
    rank = Bgp.Route.tiebreak_rank ~salt:(Asn.to_int self) from;
  }

(* The order as documented: the lexicographic order on the key
   (preference, -length, -rank, -neighbor ASN), written out. *)
let compare_candidates a b =
  let key c = (c.pref, -Bgp.As_path.length c.path, -c.rank, -Asn.to_int c.from) in
  Stdlib.compare (key a) (key b)

(* The greatest of [cs] under [compare], the first of equals. *)
let max_by compare cs =
  List.fold_left
    (fun acc c -> match acc with Some b when compare c b <= 0 -> acc | Some _ | None -> Some c)
    None cs

(* The most preferred of [cs], by the documented order. *)
let best_of cs = max_by compare_candidates cs

(* [Decision.compare] over two candidates of the speaker [self]: what
   the oracle checks. *)
let decide ~self a b =
  Bgp.Decision.compare ~salt:(Asn.to_int self) ~pref_a:a.pref
    ~len_a:(Bgp.As_path.length a.path) ~neighbor_a:a.from ~pref_b:b.pref
    ~len_b:(Bgp.As_path.length b.path) ~neighbor_b:b.from

(* Reference longest-prefix match over a list of (prefix, value)
   bindings: the binding of the longest prefix covering [ip]. *)
let longest_match bindings ip =
  List.fold_left
    (fun best (p, v) ->
      if not (Prefix.mem ip p) then best
      else
        match best with
        | Some (q, _) when Prefix.length q >= Prefix.length p -> best
        | Some _ | None -> Some (p, v))
    None bindings

type world = {
  engine : Sim.Engine.t;
  graph : As_graph.t;
  net : Bgp.Network.t;
  failures : Dataplane.Failure.set;
  probe : Dataplane.Probe.env;
}

let world_of_graph ?config_of ?(mrai = 5.0) graph =
  let engine = Sim.Engine.create () in
  let net = Bgp.Network.create ~engine ~graph ?config_of ~mrai () in
  let failures = Dataplane.Failure.create () in
  let probe = Dataplane.Probe.env net failures in
  { engine; graph; net; failures; probe }

let converge world = Bgp.Network.run_until_quiet world.net

let announce_all_infrastructure world =
  Dataplane.Forward.announce_infrastructure world.net;
  converge world

(* The canonical example topology, based on the paper's Fig. 2:

          E --- A --- F          A is the AS to poison; F is captive
          |     |                behind A (single-homed).
          D     B
           \     \
            C --- (B)            D-C-B chain provides the alternate route
            |
            O                    O is the origin.

   Relationships (provider edges point upward):
     B provider-of O;  A provider-of B;  C provider-of B;
     D provider-of C;  D provider-of E;  A provider-of E;  A provider-of F.

   E has two providers, A and D; both give local-pref 100, so E prefers
   the shorter path through A ([A B O], length 3) over [D C B O]
   (length 4). Poisoning A forces E onto the D route; F (single-homed
   behind A) is captive and keeps only a covering sentinel route. *)
let fig2_asns = [ 10 (* O *); 20 (* B *); 30 (* A *); 40 (* C *); 50 (* D *); 60 (* E *); 70 (* F *) ]

let o = asn 10
let b = asn 20
let a = asn 30
let c = asn 40
let d = asn 50
let e = asn 60
let f = asn 70

let fig2_graph () =
  let g = As_graph.create () in
  List.iter (fun n -> As_graph.add_as g ~tier:(if n = 10 || n = 70 then 4 else 2) (asn n)) fig2_asns;
  (* b is o's provider, etc: add_link ~a ~b ~rel where rel = what b is to a *)
  As_graph.add_link g ~a:o ~b ~rel:Relationship.Provider;
  As_graph.add_link g ~a:b ~b:a ~rel:Relationship.Provider;
  As_graph.add_link g ~a:b ~b:c ~rel:Relationship.Provider;
  As_graph.add_link g ~a:c ~b:d ~rel:Relationship.Provider;
  As_graph.add_link g ~a:e ~b:d ~rel:Relationship.Provider;
  As_graph.add_link g ~a:e ~b:a ~rel:Relationship.Provider;
  As_graph.add_link g ~a:f ~b:a ~rel:Relationship.Provider;
  g

let fig2_world () = world_of_graph (fig2_graph ())

let production = prefix "203.0.113.0/24"
let sentinel = prefix "203.0.112.0/23"

let path_of_best = function
  | Some (entry : Bgp.Route.entry) -> Bgp.As_path.to_list entry.Bgp.Route.ann.Bgp.Route.path
  | None -> []

let check_path msg expected actual =
  Alcotest.(check (list int)) msg expected (List.map Asn.to_int actual)

(* A standalone speaker for [asn], wired to one stub speaker per
   neighbor: a speaker has no sessions until [Speaker.connect]. The stubs
   only ever receive. *)
let standalone_speaker ?store ~asn:self ~config ~neighbors () =
  let sp = Bgp.Speaker.create ?store ~asn:self ~config () in
  let stubs =
    List.map (fun (n, _) -> Bgp.Speaker.create ~asn:n ~config:Bgp.Policy.default ()) neighbors
  in
  Bgp.Speaker.connect (sp :: stubs) ~neighbors:(fun a ->
      if Asn.equal a self then neighbors else [ (self, Relationship.Customer) ]);
  sp

(* An emitter that drops every update. *)
let discard : Bgp.Speaker.emitter = fun _ _ _ -> ()

(* The updates a speaker emits while [f emit] runs, in emission order,
   each with its session index. *)
let updates f =
  let acc = ref [] in
  f (fun _ (s : Bgp.Speaker.session) action -> acc := (s.ix, action) :: !acc);
  List.rev !acc

(* The index of [sp]'s session to neighbor [n]. *)
let session_ix sp n =
  Option.get
    (Array.find_index (fun (s : Bgp.Speaker.session) -> Asn.equal s.asn n) (Bgp.Speaker.sessions sp))

(* A speaker's updates with each session index replaced by its
   neighbor's ASN. *)
let by_neighbor sp updates =
  List.map (fun (ix, action) -> ((Bgp.Speaker.sessions sp).(ix).Bgp.Speaker.asn, action)) updates
