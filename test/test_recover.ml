(* Crash tolerance (lib/recover): the journal line codec, crash-point
   boundaries, replay divergence, reconciliation, snapshot round-trips,
   durable-mode inertness, the crash matrix (every boundary class,
   byte-identical resume), snapshot fidelity
   mismatches, snapshots refused without marks, and totality of the
   recovery parsers. *)

open Net

let an = Asn.of_int
let weird = "spaces % percent|pipe\nnewline\ttab"

(* ---------- record line codec ---------- *)

let sample_records =
  let open Recover.Record in
  [
    { seq = 0; at = 0.0; action = Poison_announce { target = an 7; poison = an 9; planned = true } };
    { seq = 1; at = -0.0; action = Poison_reannounce { poison = an 9; announcement = 3 } };
    { seq = 2; at = 1.5e-300; action = Unpoison { poison = an 9; repaired = false; reason = weird } };
    { seq = 3; at = 86400.5; action = Breaker_trip { poison = an 1; reason = "" } };
    { seq = 4; at = 4.2; action = Plan_demotion { poison = an 2; reason = "diverged: rolled back" } };
    { seq = 5; at = 10308.0; action = Outcome { target = an 3; kind = Gave_up; reason = weird } };
    { seq = 6; at = 1.0; action = Outcome { target = an 3; kind = Stood_down; reason = "ok" } };
    { seq = 7; at = 2.0; action = Outcome { target = an 3; kind = Repaired; reason = "ok" } };
  ]

let test_record_roundtrip () =
  List.iter
    (fun r ->
      let line = Recover.Record.to_line r in
      match Recover.Record.of_line line with
      | Ok r' ->
          Alcotest.(check string) "line round-trips" line (Recover.Record.to_line r')
      | Error e -> Alcotest.failf "of_line %S: %s" line e)
    sample_records;
  (match Recover.Record.of_line "not|a|record" with
  | Ok _ -> Alcotest.fail "garbage must not parse"
  | Error _ -> ());
  List.iter
    (fun s ->
      match Recover.Record.unescape (Recover.Record.escape s) with
      | Some s' -> Alcotest.(check string) "escape round-trips" s s'
      | None -> Alcotest.failf "unescape failed for %S" s)
    [ ""; weird; "%"; "%2"; "plain"; "a|b%7Cc" ]

(* ---------- journal: torn tail vs interior corruption ---------- *)

let outcome_action i =
  Recover.Record.Outcome
    { target = an i; kind = Recover.Record.Stood_down; reason = "r " ^ string_of_int i }

let journal_of_n n =
  let j = Recover.Journal.create () in
  let effects = ref 0 in
  for i = 1 to n do
    Recover.Journal.logged j ~at:(float_of_int i) (outcome_action i) ~effect:(fun () ->
        incr effects)
  done;
  Alcotest.(check int) "every effect ran" n !effects;
  j

(* A journal file's text: every persisted line ends in a newline. *)
let file_text lines = String.concat "" (List.map (fun l -> l ^ "\n") lines)

let test_journal_corruption () =
  let j = journal_of_n 5 in
  let lines = Recover.Journal.lines j in
  Alcotest.(check int) "five lines" 5 (List.length lines);
  (* A torn final line is a half-written append, with no newline yet:
     dropped, prefix kept. *)
  let text = file_text lines in
  let last = List.nth lines 4 in
  let torn = String.sub text 0 (String.length text - 1 - (String.length last / 2)) in
  (match Recover.Journal.parse_lines torn with
  | Ok rs -> Alcotest.(check int) "torn tail dropped" 4 (List.length rs)
  | Error e -> Alcotest.failf "torn tail must parse: %s" e);
  (* The same damage on a complete line is corruption, not a torn write:
     in the interior, and at the end, since a torn write cannot end in a
     newline. *)
  List.iter
    (fun at ->
      let corrupt = file_text (List.mapi (fun i l -> if i = at then "garb|age" else l) lines) in
      match Recover.Journal.parse_lines corrupt with
      | Ok _ -> Alcotest.failf "a malformed complete line %d must not parse" at
      | Error _ -> ())
    [ 1; 4 ];
  (match Recover.Journal.parse_lines text with
  | Ok rs -> Alcotest.(check int) "clean journal parses" 5 (List.length rs)
  | Error e -> Alcotest.failf "clean journal must parse: %s" e);
  (* The records a journal keeps are the ones its lines parse to. *)
  Alcotest.(check (list string)) "records render as the lines" lines
    (List.map Recover.Record.to_line (Recover.Journal.records j))

(* ---------- replay: verification and divergence ---------- *)

let test_journal_replay () =
  let lines = Recover.Journal.lines (journal_of_n 3) in
  (* Faithful re-execution: every line verifies, every effect re-runs. *)
  let j = Recover.Journal.replaying ~expected:lines () in
  let effects = ref 0 in
  for i = 1 to 3 do
    Recover.Journal.logged j ~at:(float_of_int i) (outcome_action i) ~effect:(fun () ->
        incr effects)
  done;
  Alcotest.(check int) "replay re-applies effects" 3 !effects;
  (* Every record replayed, so the prefix is exhausted ... *)
  Alcotest.(check int) "replayed" 3 (Recover.Journal.replayed j);
  (* ... and none appended fresh. *)
  Alcotest.(check int) "no fresh appends" 3 (Recover.Journal.length j);
  Alcotest.(check (list string)) "journal rewritten identically" lines
    (Recover.Journal.lines j);
  (* A resumed run that derives a different action is not a resume. *)
  let j = Recover.Journal.replaying ~expected:lines () in
  match
    Recover.Journal.logged j ~at:1.0 (outcome_action 99) ~effect:(fun () ->
        Alcotest.fail "diverging effect must not run")
  with
  | () -> Alcotest.fail "expected Divergence"
  | exception Recover.Journal.Divergence { seq; _ } ->
      Alcotest.(check int) "diverged at the first append" 0 seq

(* ---------- crash boundaries at the append site ---------- *)

let test_crash_boundaries_unit () =
  let attempt boundary =
    let j = Recover.Journal.create ~crash:{ Recover.Crash.boundary; append = 1 } () in
    let ran = ref false in
    (match
       Recover.Journal.logged j ~at:0.5 (outcome_action 1) ~effect:(fun () -> ran := true)
     with
    | () -> Alcotest.fail "armed crash must fire"
    | exception Recover.Crash.Crashed { boundary = b; append } ->
        Alcotest.(check bool) "boundary" true (Recover.Crash.boundary_equal b boundary);
        Alcotest.(check int) "append" 1 append);
    (List.length (Recover.Journal.lines j), !ran)
  in
  (* Before_write: nothing persisted, nothing applied.  After_write: the
     record is durable but the effect was lost — the case replay must
     re-derive.  After_effect: both happened; only memory is lost. *)
  Alcotest.(check (pair int bool)) "before-write" (0, false)
    (attempt Recover.Crash.Before_write);
  Alcotest.(check (pair int bool)) "after-write" (1, false)
    (attempt Recover.Crash.After_write);
  Alcotest.(check (pair int bool)) "after-effect" (1, true)
    (attempt Recover.Crash.After_effect);
  List.iter
    (fun b ->
      match Recover.Crash.boundary_of_string (Recover.Crash.boundary_to_string b) with
      | Some b' ->
          Alcotest.(check bool) "boundary name round-trips" true
            (Recover.Crash.boundary_equal b b')
      | None -> Alcotest.fail "boundary name must parse")
    Recover.Crash.[ Before_write; After_write; After_effect ]

(* ---------- reconciliation rules on hand-built journals ---------- *)

let test_reconcile_rules () =
  let p = an 9 in
  let r seq at action = { Recover.Record.seq; at; action } in
  let announce =
    Recover.Record.Poison_announce { target = an 5; poison = p; planned = false }
  in
  let unpoison = Recover.Record.Unpoison { poison = p; repaired = true; reason = "" } in
  (* A closed episode against clean views. *)
  let v = Recover.Reconcile.check ~horizon:100.0 ~poisoned_views:[ (an 2, None) ]
      [ r 0 1.0 announce; r 1 50.0 unpoison ]
  in
  Alcotest.(check bool) "clean" true v.Recover.Reconcile.clean;
  Alcotest.(check int) "poisons" 1 v.Recover.Reconcile.poisons;
  Alcotest.(check int) "unpoisons" 1 v.Recover.Reconcile.unpoisons;
  (* Two announces with no withdrawal between them: the double-poison
     bug class write-ahead logging exists to exclude. *)
  let v = Recover.Reconcile.check ~horizon:100.0 ~poisoned_views:[]
      [ r 0 1.0 announce; r 1 2.0 announce ]
  in
  Alcotest.(check int) "double poison counted" 1 v.Recover.Reconcile.double_poisons;
  Alcotest.(check bool) "not clean" false v.Recover.Reconcile.clean;
  (* A view still carrying the poison long after the journal withdrew
     it is an orphan; inside the grace window it is merely settling. *)
  let views = [ (an 2, Some p) ] in
  let episode = [ r 0 1.0 announce; r 1 50.0 unpoison ] in
  let v = Recover.Reconcile.check ~grace:10.0 ~horizon:100.0 ~poisoned_views:views episode in
  Alcotest.(check int) "orphaned outside grace" 1 v.Recover.Reconcile.orphaned;
  let v = Recover.Reconcile.check ~grace:60.0 ~horizon:100.0 ~poisoned_views:views episode in
  Alcotest.(check int) "settling inside grace" 1 v.Recover.Reconcile.settling;
  Alcotest.(check bool) "settling is clean" true v.Recover.Reconcile.clean;
  (* A view carrying the journal's own open poison is expected state. *)
  let v = Recover.Reconcile.check ~horizon:100.0 ~poisoned_views:views [ r 0 1.0 announce ] in
  Alcotest.(check int) "open episode is not an orphan" 0 v.Recover.Reconcile.orphaned;
  Alcotest.(check bool) "active at horizon" true
    (match v.Recover.Reconcile.active_at_horizon with
    | Some a -> Asn.equal a p
    | None -> false)

(* ---------- durable fleet runs ---------- *)

let fleet_config =
  {
    Fleet.Service.default_config with
    Fleet.Service.duration = 10800.0;
    target_count = 12;
    outages_per_day = 96.0;
  }

let render = Fleet.Service.render_report

let finished label = function
  | Fleet.Service.Finished { report; recovery } -> (report, recovery)
  | Fleet.Service.Interrupted { boundary; append; _ } ->
      Alcotest.failf "%s: unexpected crash at %s append %d" label
        (Recover.Crash.boundary_to_string boundary)
        append

let poison_count lines =
  List.length
    (List.filter
       (fun l ->
         match String.split_on_char '|' l with
         | _ :: _ :: "poison" :: _ -> true
         | _ -> false)
       lines)

let test_snapshot_roundtrip () =
  let config = fleet_config in
  let snaps = ref [] in
  let _, rc =
    finished "fresh"
      (Fleet.Service.run_durable ~config ~seed:42 ~snapshot_every:2700.0
         ~snapshot_sink:(fun s -> snaps := s :: !snaps)
         ())
  in
  Alcotest.(check bool) "marks captured" true (rc.Fleet.Service.rc_marks >= 2);
  Alcotest.(check int) "sink saw every mark" rc.Fleet.Service.rc_marks (List.length !snaps);
  List.iter
    (fun s ->
      match Recover.Snapshot.parse_result (Recover.Snapshot.render s) with
      | Ok s' ->
          Alcotest.(check bool) "render/parse round-trip" true (Recover.Snapshot.equal s s')
      | Error e -> Alcotest.failf "snapshot must re-parse: %s" e)
    !snaps;
  let s = List.hd !snaps in
  let txt = Recover.Snapshot.render s in
  (match Recover.Snapshot.parse_result (String.sub txt 0 (String.length txt / 2)) with
  | Ok _ -> Alcotest.fail "truncated snapshot must not parse"
  | Error _ -> ());
  (* A snapshot from another (config, seed) world is refused loudly. *)
  match Fleet.Service.run_durable ~config ~seed:43 ~snapshot:s ~snapshot_every:2700.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "foreign snapshot must be refused"

let test_marks_inert () =
  let config = fleet_config in
  let plain = render (Fleet.Service.run ~config ~seed:42 ()) in
  let marked, _ =
    finished "marked" (Fleet.Service.run_durable ~config ~seed:42 ~snapshot_every:2700.0 ())
  in
  Alcotest.(check (list string)) "snapshot marks are inert" plain (render marked)

(* Exactly-once under control-plane faults: at twice the fault study's
   profile, flaps, crashes and lost updates make the watchdog work, and
   still no poison goes out twice and no view keeps a poison the journal
   withdrew. Seed 43 ends with a poison standing at the horizon, so the
   open-episode branch of reconciliation is covered too. *)
let test_faults_exactly_once () =
  let config =
    {
      Fleet.Service.default_config with
      Fleet.Service.duration = 21600.0;
      target_count = 25;
      faults = Bgp.Faults.scale Experiments.Fault_study.default_profile 2.0;
    }
  in
  List.iter
    (fun (seed, open_at_horizon) ->
      let label = Printf.sprintf "seed %d" seed in
      let _, rc = finished label (Fleet.Service.run_durable ~config ~seed ()) in
      let r = rc.Fleet.Service.rc_reconcile in
      Alcotest.(check bool) (label ^ ": clean") true r.Recover.Reconcile.clean;
      Alcotest.(check int) (label ^ ": double poisons") 0 r.Recover.Reconcile.double_poisons;
      Alcotest.(check int) (label ^ ": orphaned") 0 r.Recover.Reconcile.orphaned;
      Alcotest.(check bool) (label ^ ": poison open at horizon") open_at_horizon
        (Option.is_some r.Recover.Reconcile.active_at_horizon))
    [ (42, false); (43, true) ]

let test_crash_matrix () =
  let config = fleet_config in
  let reference, ref_rc =
    finished "reference"
      (Fleet.Service.run_durable ~config ~seed:42 ~snapshot_every:2700.0 ())
  in
  let ref_render = render reference in
  let ref_lines = ref_rc.Fleet.Service.rc_journal in
  let total = List.length ref_lines in
  Alcotest.(check bool) "journal has records" true (total >= 2);
  Alcotest.(check bool) "reference saw a poison" true (poison_count ref_lines >= 1);
  let appends = [ 1; total / 2 ] in
  List.iter
    (fun boundary ->
      List.iter
        (fun append ->
          let label =
            Printf.sprintf "%s@%d" (Recover.Crash.boundary_to_string boundary) append
          in
          match
            Fleet.Service.run_durable ~config ~seed:42 ~snapshot_every:2700.0
              ~crash:{ Recover.Crash.boundary; append } ()
          with
          | Fleet.Service.Finished _ -> Alcotest.failf "%s: crash did not fire" label
          | Fleet.Service.Interrupted { boundary = b; append = a; journal; snapshot } ->
              Alcotest.(check bool) (label ^ ": boundary") true
                (Recover.Crash.boundary_equal b boundary);
              Alcotest.(check int) (label ^ ": append") append a;
              let persisted =
                match boundary with
                | Recover.Crash.Before_write -> append - 1
                | Recover.Crash.After_write | Recover.Crash.After_effect -> append
              in
              Alcotest.(check int) (label ^ ": persisted lines") persisted
                (List.length journal);
              let resumed, rc =
                finished (label ^ ": resume")
                  (Fleet.Service.run_durable ~config ~seed:42 ~snapshot_every:2700.0
                     ~journal ?snapshot ())
              in
              (* The headline invariant: a crashed-and-resumed run is
                 byte-identical to the uninterrupted one. *)
              Alcotest.(check (list string)) (label ^ ": report byte-identical")
                ref_render (render resumed);
              Alcotest.(check (list string)) (label ^ ": journal identical") ref_lines
                rc.Fleet.Service.rc_journal;
              Alcotest.(check int) (label ^ ": replayed the persisted prefix")
                persisted rc.Fleet.Service.rc_replayed;
              Alcotest.(check int) (label ^ ": exactly-once poisons")
                (poison_count ref_lines)
                (poison_count rc.Fleet.Service.rc_journal);
              Alcotest.(check int) (label ^ ": no double poison") 0
                rc.Fleet.Service.rc_reconcile.Recover.Reconcile.double_poisons;
              Alcotest.(check int) (label ^ ": no orphaned poison") 0
                rc.Fleet.Service.rc_reconcile.Recover.Reconcile.orphaned;
              Alcotest.(check bool) (label ^ ": reconcile clean") true
                rc.Fleet.Service.rc_reconcile.Recover.Reconcile.clean)
        appends)
    Recover.Crash.[ Before_write; After_write; After_effect ]

(* ---------- snapshot fidelity: Mismatch is raised ---------- *)

(* One reference durable run with marks, shared by the tests below. *)
let reference_run =
  lazy
    (let snaps = ref [] in
     let _, rc =
       finished "reference"
         (Fleet.Service.run_durable ~config:fleet_config ~seed:42 ~snapshot_every:2700.0
            ~snapshot_sink:(fun s -> snaps := s :: !snaps)
            ())
     in
     (rc.Fleet.Service.rc_journal, List.rev !snaps))

let mark_snapshot m =
  let _, snaps = Lazy.force reference_run in
  match List.find_opt (fun s -> s.Recover.Snapshot.mark = m) snaps with
  | Some s -> s
  | None -> Alcotest.failf "expected a mark-%d snapshot" m

let test_snapshot_mismatch () =
  let journal, _ = Lazy.force reference_run in
  let snap = mark_snapshot 2 in
  (* A resume whose snapshot no longer matches re-execution at its mark
     is refused there — whether the state digest or the head report was
     altered. Marks (and so the check) run only at a snapshot cadence. *)
  let expect_mismatch label altered =
    match
      Fleet.Service.run_durable ~config:fleet_config ~seed:42 ~journal ~snapshot:altered
        ~snapshot_every:2700.0 ()
    with
    | exception Recover.Snapshot.Mismatch { mark } ->
        Alcotest.(check int) (label ^ ": refused at the snapshot's mark") 2 mark
    | _ -> Alcotest.failf "%s: altered snapshot must raise Mismatch" label
  in
  let flip_first s =
    String.mapi (fun i c -> if i = 0 then if Char.equal c '0' then '1' else '0' else c) s
  in
  expect_mismatch "state digest" { snap with Recover.Snapshot.state = flip_first snap.state };
  expect_mismatch "head report"
    {
      snap with
      Recover.Snapshot.head =
        List.map
          (fun l -> if String.starts_with ~prefix:"injected " l then "injected 9999" else l)
          snap.head;
    }

(* Without armed marks a snapshot would never be compared with
   re-execution, so run_durable refuses it rather than resume unchecked. *)
let test_snapshot_needs_marks () =
  let journal, _ = Lazy.force reference_run in
  let snapshot = mark_snapshot 2 in
  List.iter
    (fun (label, snapshot_every) ->
      match
        Fleet.Service.run_durable ~config:fleet_config ~seed:42 ~journal ~snapshot
          ?snapshot_every ()
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: a snapshot without marks must be refused" label)
    [ ("no snapshot_every", None); ("snapshot_every 0", Some 0.0) ]

(* ---------- recovery parsers are total ---------- *)

(* Damage a valid input the way crashes and bit rot do: truncate, flip,
   insert or delete a byte, one to three times over. *)
let mutated base =
  let open QCheck.Gen in
  let once s =
    let n = String.length s in
    int_bound (max 0 n) >>= fun k ->
    char >>= fun c ->
    oneofl
      (if n = 0 then [ String.make 1 c ]
       else
         let k' = k mod n in
         [
           String.sub s 0 k;
           String.mapi (fun i x -> if i = k' then c else x) s;
           String.sub s 0 k ^ String.make 1 c ^ String.sub s k (n - k);
           String.sub s 0 k' ^ String.sub s (k' + 1) (n - k' - 1);
         ])
  in
  int_range 1 3 >>= fun times ->
  let rec go s i = if i = 0 then return s else once s >>= fun s -> go s (i - 1) in
  go base times

(* Arbitrary bytes half the time, a damaged valid input the other half.
   The valid inputs are forced on first use, so building the suite runs
   no world. *)
let damaged valid =
  let open QCheck.Gen in
  let gen =
    frequency
      [
        (1, string_size ~gen:char (int_bound 200));
        (1, return () >>= fun () -> oneofl (Lazy.force valid) >>= mutated);
      ]
  in
  QCheck.make ~print:(Printf.sprintf "%S") gen

let total name arb prop =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])
    (QCheck.Test.make ~name ~count:500 arb (fun x ->
         match prop x with
         | ok -> ok
         | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)))

let lines_of text = String.split_on_char '\n' text

let record_lines = List.map Recover.Record.to_line sample_records

let prop_record =
  total "Record.of_line is total and canonical" (damaged (lazy record_lines)) (fun line ->
      match Recover.Record.of_line line with
      | Error _ -> true
      | Ok r -> (
          let canon = Recover.Record.to_line r in
          match Recover.Record.of_line canon with
          | Ok r' -> String.equal canon (Recover.Record.to_line r')
          | Error _ -> false))

let prop_journal =
  total "Journal.parse_lines is total" (damaged (lazy [ String.concat "\n" record_lines ]))
    (fun text -> match Recover.Journal.parse_lines text with Ok _ | Error _ -> true)

(* A journal cut anywhere is a torn write: it always loads, as exactly the
   complete lines before the cut. *)
let prop_journal_truncated =
  let text = file_text record_lines in
  total "Journal.parse_lines loads every truncation as a prefix"
    QCheck.(int_bound (String.length text))
    (fun k ->
      let cut = String.sub text 0 k in
      let complete = List.length (lines_of cut) - 1 in
      match Recover.Journal.parse_lines cut with
      | Error _ -> false
      | Ok rs ->
          List.equal String.equal
            (List.map Recover.Record.to_line rs)
            (List.filteri (fun i _ -> i < complete) record_lines))

let reference_snapshots f = lazy (List.map f (snd (Lazy.force reference_run)))

let prop_snapshot =
  total "Snapshot.parse_result is total and canonical"
    (damaged (reference_snapshots Recover.Snapshot.render))
    (fun text ->
      match Recover.Snapshot.parse_result text with
      | Error _ -> true
      | Ok s -> (
          let canon = Recover.Snapshot.render s in
          match Recover.Snapshot.parse_result canon with
          | Ok s' -> String.equal canon (Recover.Snapshot.render s')
          | Error _ -> false))

let test_snapshot_parse_errors () =
  let txt = Recover.Snapshot.render (mark_snapshot 1) in
  let err text =
    match Recover.Snapshot.parse_result text with
    | Ok _ -> Alcotest.fail "damaged snapshot must not parse"
    | Error e -> e
  in
  let bad =
    lines_of txt
    |> List.map (fun l -> if String.starts_with ~prefix:"mark " l then "mark two" else l)
    |> String.concat "\n"
  in
  Alcotest.(check string) "names the first malformed line"
    "snapshot: malformed line: \"mark two\"" (err bad);
  Alcotest.(check string) "names the missing terminator" "snapshot: truncated (no end line)"
    (err (String.sub txt 0 (String.length txt - 4)));
  Alcotest.(check string) "names a v2 header"
    "snapshot: bad header \"recover-snapshot v2\" (want \"recover-snapshot v3\")"
    (err "recover-snapshot v2\nend\n")

let suite =
  [
    Alcotest.test_case "record line codec round-trips" `Quick test_record_roundtrip;
    Alcotest.test_case "journal: torn tail vs interior corruption" `Quick
      test_journal_corruption;
    Alcotest.test_case "journal: replay verifies, divergence raises" `Quick
      test_journal_replay;
    Alcotest.test_case "crash boundaries at the append site" `Quick
      test_crash_boundaries_unit;
    Alcotest.test_case "reconcile: doubles, orphans, settling" `Quick test_reconcile_rules;
    Alcotest.test_case "snapshot render/parse round-trip + fingerprint" `Quick
      test_snapshot_roundtrip;
    Alcotest.test_case "snapshot marks are byte-inert" `Quick test_marks_inert;
    Alcotest.test_case "exactly-once under control-plane faults" `Quick
      test_faults_exactly_once;
    Alcotest.test_case "crash matrix: byte-identical resume at every boundary" `Quick
      test_crash_matrix;
    Alcotest.test_case "altered snapshot raises Mismatch at its mark" `Quick
      test_snapshot_mismatch;
    Alcotest.test_case "snapshot without marks is refused" `Quick
      test_snapshot_needs_marks;
    Alcotest.test_case "snapshot parse errors name the damage" `Quick
      test_snapshot_parse_errors;
    prop_record;
    prop_journal;
    prop_journal_truncated;
    prop_snapshot;
  ]
