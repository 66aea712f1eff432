(* Report rendering: the output formats of lifeguard-lint (text and
   GitHub workflow commands). *)

type format = Text | Github

let format_of_string = function
  | "text" -> Some Text
  | "github" -> Some Github
  | _ -> None

let text_line (v : Source_scan.violation) =
  Printf.sprintf "%s:%d:%d: [%s] %s" v.file v.line v.col (Rule.id v.rule) v.message

(* GitHub workflow commands: one `::warning`/`::error` per violation, so
   a CI run annotates the diff at the offending line. *)
let github_line ?(level = "warning") (v : Source_scan.violation) =
  Printf.sprintf "::%s file=%s,line=%d,col=%d,title=%s::%s" level v.file v.line (v.col + 1)
    (Rule.id v.rule) v.message

let render format ~violations =
  let line = match format with Text -> text_line | Github -> fun v -> github_line v in
  String.concat "" (List.map (fun v -> line v ^ "\n") violations)
