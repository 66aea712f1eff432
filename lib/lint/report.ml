(* Report rendering: the machine-readable output formats of
   lifeguard-lint (text, json, SARIF 2.1.0, GitHub workflow commands)
   plus a dependency-free JSON well-formedness checker used by the test
   suite to keep the SARIF emitter honest. *)

type format = Text | Json | Sarif | Github

let format_of_string = function
  | "text" -> Some Text
  | "json" -> Some Json
  | "sarif" -> Some Sarif
  | "github" -> Some Github
  | _ -> None

let text_line (v : Source_scan.violation) =
  Printf.sprintf "%s:%d:%d: [%s] %s" v.file v.line v.col (Rule.id v.rule) v.message

(* GitHub workflow commands: one `::warning`/`::error` per violation, so
   a CI run annotates the diff at the offending line. *)
let github_line ?(level = "warning") (v : Source_scan.violation) =
  Printf.sprintf "::%s file=%s,line=%d,col=%d,title=%s::%s" level v.file v.line (v.col + 1)
    (Rule.id v.rule) v.message

let esc = Obs.Trace.add_escaped

let render_json ~violations ~errors =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"violations\":[";
  List.iteri
    (fun i (v : Source_scan.violation) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "{\"rule\":\"%s\",\"file\":\"%a\",\"line\":%d,\"col\":%d,\"message\":\"%a\"}"
        (Rule.id v.rule) esc v.file v.line v.col esc v.message)
    violations;
  Buffer.add_string b "],\"errors\":[";
  List.iteri
    (fun i (f, e) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "{\"file\":\"%a\",\"error\":\"%a\"}" esc f esc e)
    errors;
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* Minimal SARIF 2.1.0: one run, the full rule catalogue as tool rules,
   one result per violation. Columns are 1-based in SARIF. *)
let render_sarif ~violations ~errors =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"version\":\"2.1.0\",\
     \"runs\":[{\"tool\":{\"driver\":{\"name\":\"lifeguard-lint\",\"rules\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "{\"id\":\"%s\",\"shortDescription\":{\"text\":\"%a\"}}" (Rule.id r) esc
        (Rule.describe r))
    Rule.all;
  Buffer.add_string b "]}},\"results\":[";
  List.iteri
    (fun i (v : Source_scan.violation) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "{\"ruleId\":\"%s\",\"level\":\"warning\",\"message\":{\"text\":\"%a\"},\
         \"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"%a\"},\
         \"region\":{\"startLine\":%d,\"startColumn\":%d}}}]}"
        (Rule.id v.rule) esc v.message esc v.file v.line (v.col + 1))
    violations;
  Buffer.add_string b "]";
  (match errors with
  | [] -> ()
  | errs ->
      Buffer.add_string b ",\"invocations\":[{\"executionSuccessful\":false,\
                           \"toolExecutionNotifications\":[";
      List.iteri
        (fun i (f, e) ->
          if i > 0 then Buffer.add_char b ',';
          Printf.bprintf b "{\"level\":\"error\",\"message\":{\"text\":\"%a: %a\"}}" esc f esc
            e)
        errs;
      Buffer.add_string b "]}]");
  Buffer.add_string b "}]}\n";
  Buffer.contents b

let render format ~violations ~errors =
  match format with
  | Text ->
      String.concat "" (List.map (fun v -> text_line v ^ "\n") violations)
  | Json -> render_json ~violations ~errors
  | Sarif -> render_sarif ~violations ~errors
  | Github ->
      String.concat "" (List.map (fun v -> github_line v ^ "\n") violations)

(* ---------------- JSON well-formedness -------------------------------- *)

(* A recursive-descent validator (values are not materialized): enough to
   assert at test time that the SARIF emitter produces parseable JSON
   without adding a JSON dependency. *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = Error (Printf.sprintf "offset %d: %s" !pos msg) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if !pos < n && s.[!pos] = c then begin
      advance ();
      Ok ()
    end
    else fail (Printf.sprintf "expected %c" c)
  in
  let lit word =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      Ok ()
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let string_tok () =
    match expect '"' with
    | Error _ as e -> e
    | Ok () ->
        let rec go () =
          if !pos >= n then fail "unterminated string"
          else
            match s.[!pos] with
            | '"' ->
                advance ();
                Ok ()
            | '\\' ->
                advance ();
                if !pos >= n then fail "bad escape"
                else begin
                  (match s.[!pos] with
                  | 'u' -> pos := !pos + 4
                  | _ -> ());
                  advance ();
                  go ()
                end
            | _ ->
                advance ();
                go ()
        in
        go ()
  in
  let number_tok () =
    let start = !pos in
    let is_num c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && is_num s.[!pos] do
      advance ()
    done;
    if !pos > start then Ok () else fail "expected number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_tok ()
    | Some 't' -> lit "true"
    | Some 'f' -> lit "false"
    | Some 'n' -> lit "null"
    | Some ('-' | '0' .. '9') -> number_tok ()
    | _ -> fail "expected a JSON value"
  and obj () =
    match expect '{' with
    | Error _ as e -> e
    | Ok () -> (
        skip_ws ();
        match peek () with
        | Some '}' ->
            advance ();
            Ok ()
        | _ ->
            let rec members () =
              skip_ws ();
              match string_tok () with
              | Error _ as e -> e
              | Ok () -> (
                  skip_ws ();
                  match expect ':' with
                  | Error _ as e -> e
                  | Ok () -> (
                      match value () with
                      | Error _ as e -> e
                      | Ok () -> (
                          skip_ws ();
                          match peek () with
                          | Some ',' ->
                              advance ();
                              members ()
                          | Some '}' ->
                              advance ();
                              Ok ()
                          | _ -> fail "expected , or }")))
            in
            members ())
  and arr () =
    match expect '[' with
    | Error _ as e -> e
    | Ok () -> (
        skip_ws ();
        match peek () with
        | Some ']' ->
            advance ();
            Ok ()
        | _ ->
            let rec elements () =
              match value () with
              | Error _ as e -> e
              | Ok () -> (
                  skip_ws ();
                  match peek () with
                  | Some ',' ->
                      advance ();
                      elements ()
                  | Some ']' ->
                      advance ();
                      Ok ()
                  | _ -> fail "expected , or ]")
            in
            elements ())
  in
  match value () with
  | Error _ as e -> e
  | Ok () ->
      skip_ws ();
      if !pos = n then Ok () else fail "trailing garbage"
