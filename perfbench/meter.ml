(* Clocks, process counters, in-memory spans and the result line. The
   library reads no clock of its own on these paths; every time here is
   taken from outside it. *)

let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let time f =
  let t0 = now () in
  f ();
  now () -. t0

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The process's resident-set high-water mark (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

(* ------------------------------------------------------------------ *)
(* Spans: name, start, end, parent, count and minor words allocated,
   kept in memory and written out (optionally) when the run ends. *)

type span = {
  id : int;
  name : string;
  parent : int option;
  start : float;
  stop : float;
  count : int;  (** Operations the span covers. *)
  minor_words : float;
}

let spans : span list ref = ref []
let current : int option ref = ref None
let next_id = ref 0

(* [record name ~count f] runs [f] as one span covering [count r]
   operations, [r] being what [f] returned; spans opened inside [f] get
   it as their parent. A span that raises is kept with count 0. *)
let record name ~count f =
  let id = !next_id in
  incr next_id;
  let parent = !current in
  current := Some id;
  let w0 = Gc.minor_words () in
  let start = now () in
  let ops = ref 0 in
  let finish () =
    let stop = now () in
    let minor_words = Gc.minor_words () -. w0 in
    current := parent;
    spans := { id; name; parent; start; stop; count = !ops; minor_words } :: !spans
  in
  Fun.protect ~finally:finish (fun () ->
      let r = f () in
      ops := count r;
      r)

let span name ~count f = record name ~count:(fun _ -> count) f

(* A span whose operation count is what it returns. *)
let span_counted name f = ignore (record name ~count:Fun.id f)

let dur s = s.stop -. s.start

(* Median per-operation seconds and minor words over the recorded spans
   of one name. *)
let per_op name =
  let mine = List.filter (fun s -> String.equal s.name name && s.count > 0) !spans in
  let per f = median (List.map (fun s -> f s /. float_of_int s.count) mine) in
  (per dur, per (fun s -> s.minor_words))

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"parent\": %s, \"start\": %s, \"end\": %s, \"count\": %d, \
         \"minor_words\": %s}\n"
        s.id s.name
        (match s.parent with Some p -> string_of_int p | None -> "null")
        (json_float s.start) (json_float s.stop) s.count (json_float s.minor_words))
    (List.rev !spans);
  close_out oc

(* The last line of standard output. Metric names and units are plain
   ASCII identifiers, so %S quoting is valid JSON for them. *)
let result_json ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " fields)
