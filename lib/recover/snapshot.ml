type t = {
  at : float;
  mark : int;
  seed : int;
  config_fp : string;
  journal_len : int;
  state : string;
  head : string list;
}

exception Mismatch of { mark : int }

let () =
  Printexc.register_printer (function
    | Mismatch { mark } ->
        Some
          (Printf.sprintf
             "Recover.Snapshot.Mismatch(mark %d): re-execution does not reproduce the stored \
              snapshot"
             mark)
    | _ -> None)

let header = "recover-snapshot v3"

(* FNV-1a offset basis and prime; the basis is truncated to OCaml's
   63-bit int and the product wraps there. *)
let digest s =
  let h = ref 0xbf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  Printf.sprintf "%016x" (!h land max_int)

let render s =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b l; Buffer.add_char b '\n') fmt in
  line "%s" header;
  line "at %s" (Record.float_field s.at);
  line "mark %d" s.mark;
  line "seed %d" s.seed;
  line "config %s" (Record.escape s.config_fp);
  line "journal %d" s.journal_len;
  line "state %s" (Record.escape s.state);
  List.iter (fun l -> line "head %s" (Record.escape l)) s.head;
  line "end";
  Buffer.contents b

let equal a b = String.equal (render a) (render b)

(* ---- parsing ---- *)

let ( let* ) = Result.bind

let parse_result text =
  let at = ref None and mark = ref None and seed = ref None and config = ref None in
  let journal = ref None and state = ref None and head = ref [] in
  let set r conv v = Option.map (fun x -> r := Some x) (conv v) in
  (* [Some ()] when [line] is well-formed (and recorded), [None] otherwise. *)
  let parse_line line =
    match String.split_on_char ' ' line with
    | [ "at"; v ] -> set at float_of_string_opt v
    | [ "mark"; v ] -> set mark int_of_string_opt v
    | [ "seed"; v ] -> set seed int_of_string_opt v
    | [ "config"; v ] -> set config Record.unescape v
    | [ "journal"; v ] -> set journal int_of_string_opt v
    | [ "state"; v ] -> set state Record.unescape v
    | [ "head"; v ] ->
        Option.map (fun v -> head := v :: !head) (Record.unescape v)
    | _ -> None
  in
  (* Lines after [end] are ignored; a missing [end] is a truncation. *)
  let rec feed = function
    | [] -> Error "snapshot: truncated (no end line)"
    | "end" :: _ -> Ok ()
    | "" :: rest -> feed rest
    | line :: rest -> (
        match parse_line line with
        | Some () -> feed rest
        | None -> Error (Printf.sprintf "snapshot: malformed line: %S" line))
  in
  let need name r = Option.to_result ~none:("snapshot: missing " ^ name ^ " line") !r in
  let* () =
    match String.split_on_char '\n' text with
    | first :: rest when String.equal first header -> feed rest
    | first :: _ -> Error (Printf.sprintf "snapshot: bad header %S (want %S)" first header)
    | [] -> Error "snapshot: empty"
  in
  let* at = need "at" at in
  let* mark = need "mark" mark in
  let* seed = need "seed" seed in
  let* config_fp = need "config" config in
  let* journal_len = need "journal" journal in
  let* state = need "state" state in
  Ok { at; mark; seed; config_fp; journal_len; state; head = List.rev !head }
