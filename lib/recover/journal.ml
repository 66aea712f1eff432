(* Recovery observability: appends and replays are per-domain counters
   (a journal lives inside one trial world, so the shards never mix). *)
let m_appends = Obs.Metrics.counter "recover.appends"
let m_replayed = Obs.Metrics.counter "recover.replayed"
let m_crashes = Obs.Metrics.counter "recover.crashes"

exception
  Divergence of { seq : int; expected : string option; got : string }

let () =
  Printexc.register_printer (function
    | Divergence { seq; expected; got } ->
        Some
          (Printf.sprintf "Recover.Journal.Divergence(seq %d, expected %s, got %S)" seq
             (match expected with Some s -> Printf.sprintf "%S" s | None -> "<end>")
             got)
    | _ -> None)

type t = {
  sink : string -> unit;
  expected : string array;  (** replay prefix; [||] for a fresh journal *)
  crash : Crash.spec option;
  mutable seq : int;  (** next record's journal position *)
  mutable appends : int;  (** logged actions so far, for the crash spec *)
  mutable lines : string list;  (** persisted lines, newest first *)
  mutable records : Record.t list;  (** [lines]' records, newest first *)
  mutable replay_started : float;
      (** simulation time of the first replayed append (for the
          [recover.replay] span); NaN until replay begins *)
}

let replaying ?(sink = fun (_ : string) -> ()) ?crash ~expected () =
  {
    sink;
    expected = Array.of_list expected;
    crash;
    seq = 0;
    appends = 0;
    lines = [];
    records = [];
    replay_started = Float.nan;
  }

let create ?sink ?crash () = replaying ?sink ?crash ~expected:[] ()

let check_crash j boundary =
  match j.crash with
  | Some spec when spec.Crash.append = j.appends && Crash.boundary_equal spec.Crash.boundary boundary
    ->
      Obs.Metrics.incr m_crashes;
      raise (Crash.Crashed { boundary; append = j.appends })
  | _ -> ()

(* Still inside the replay prefix. *)
let replaying_now j = j.seq < Array.length j.expected

let trace_replay_done j ~at =
  if Obs.Trace.on () then
    Obs.Trace.event ~ts:at ~span:"recover.replay"
      [
        ("phase", Obs.Trace.Str "end");
        ("records", Obs.Trace.Int (Array.length j.expected));
        ("started", Obs.Trace.Float j.replay_started);
      ]

let logged j ~at action ~effect =
  j.appends <- j.appends + 1;
  check_crash j Crash.Before_write;
  let record = { Record.seq = j.seq; at; action } in
  let line = Record.to_line record in
  (* Replay verification: while inside the persisted prefix, the
     re-executed run must reproduce the stored line byte-for-byte.
     Divergence means the resumed world is not the crashed world (wrong
     seed or config, or a nondeterminism bug) — refuse to continue
     rather than silently double-announce. *)
  let in_prefix = replaying_now j in
  if in_prefix then begin
    let want = j.expected.(j.seq) in
    if not (String.equal want line) then
      raise (Divergence { seq = j.seq; expected = Some want; got = line });
    if j.seq = 0 then j.replay_started <- at;
    Obs.Metrics.incr m_replayed
  end
  else Obs.Metrics.incr m_appends;
  j.seq <- j.seq + 1;
  j.lines <- line :: j.lines;
  j.records <- record :: j.records;
  j.sink line;
  check_crash j Crash.After_write;
  effect ();
  check_crash j Crash.After_effect;
  if in_prefix && not (replaying_now j) then trace_replay_done j ~at

let length j = j.seq
let replayed j = min j.seq (Array.length j.expected)
let lines j = List.rev j.lines

let records j = List.rev j.records

(* A journal file recovered after a crash may end mid-line: the process
   died inside a write. Every persisted line ends in a newline, and the
   record codec escapes newlines inside a field, so whatever follows the
   last newline is that torn write and is dropped, even when it happens
   to parse. A complete line that does not parse, the last one included,
   is corruption and refuses to load. *)
let parse_lines text =
  let rec go acc = function
    | [] | [ _ ] -> Ok (List.rev acc)
    | "" :: rest -> go acc rest
    | line :: rest -> Result.bind (Record.of_line line) (fun r -> go (r :: acc) rest)
  in
  go [] (String.split_on_char '\n' text)
