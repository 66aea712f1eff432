(* JSONL trace sink with per-domain buffers.

   Only the owning domain appends to its buffer; the sink mutex is taken
   when a buffer flushes (at 8 KiB or at close), so concurrent domains
   never interleave within a line. Event ORDER in the output is therefore
   not deterministic across --jobs values; event COUNTS per span are. *)

type value = Int of int | Float of float | Bool of bool | Str of string

type sink = { write : string -> unit; close_sink : unit -> unit }

let lock = Mutex.create ()
let sink : sink option ref = ref None
let enabled = Atomic.make false

let on () = Atomic.get enabled

type dbuf = { buf : Buffer.t; domain : int }

let buffers : dbuf list ref = ref []

let buf_key : dbuf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b = { buf = Buffer.create 8192; domain = (Domain.self () :> int) } in
      Mutex.lock lock;
      buffers := b :: !buffers;
      Mutex.unlock lock;
      b)

let flush_limit = 8192

(* Flush [b] into the sink under the mutex. The enabled flag is cleared
   before the sink is torn down, so a racing flush can find no sink; its
   contents then stay buffered (close drains every buffer anyway). *)
let flush_locked b =
  match !sink with
  | Some s ->
      s.write (Buffer.contents b.buf);
      Buffer.clear b.buf
  | None -> ()

let flush b =
  Mutex.lock lock;
  flush_locked b;
  Mutex.unlock lock

(* Append a string's JSON-escaped body (no surrounding quotes): quote,
   backslash, newline, tab and carriage return get their short escapes,
   other control characters [\u00XX]. *)
let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_value buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* %.6g keeps timestamps/durations compact and full-precision
         enough for microsecond-scale spans. *)
      Buffer.add_string buf (Printf.sprintf "%.6g" f)
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Str s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'

let event ~ts ~span kvs =
  if Atomic.get enabled then begin
    let b = Domain.DLS.get buf_key in
    let buf = b.buf in
    Buffer.add_string buf "{\"ts\":";
    Buffer.add_string buf (Printf.sprintf "%.6f" ts);
    Buffer.add_string buf ",\"domain\":";
    Buffer.add_string buf (string_of_int b.domain);
    Buffer.add_string buf ",\"span\":\"";
    add_escaped buf span;
    Buffer.add_string buf "\",\"kv\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        add_escaped buf k;
        Buffer.add_string buf "\":";
        add_value buf v)
      kvs;
    Buffer.add_string buf "}}\n";
    if Buffer.length buf >= flush_limit then flush b
  end

let install s =
  Mutex.lock lock;
  (match !sink with
  | Some old -> old.close_sink ()
  | None -> ());
  sink := Some s;
  Mutex.unlock lock;
  Atomic.set enabled true

let enable_file path =
  let oc = open_out path in
  install
    { write = (fun s -> output_string oc s); close_sink = (fun () -> close_out oc) }

let enable_buffer target =
  install
    { write = (fun s -> Buffer.add_string target s); close_sink = ignore }

let close () =
  Atomic.set enabled false;
  Mutex.lock lock;
  List.iter flush_locked !buffers;
  (match !sink with
  | Some s -> s.close_sink ()
  | None -> ());
  sink := None;
  Mutex.unlock lock
