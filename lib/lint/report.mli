(** Output formats for lint reports: plain text and GitHub workflow
    commands (inline diff annotations). *)

type format = Text | Github

val format_of_string : string -> format option
(** ["text"], ["github"]. *)

val text_line : Source_scan.violation -> string

val github_line : ?level:string -> Source_scan.violation -> string
(** A [::warning]/[::error] workflow command ([level] defaults to
    ["warning"]). *)

val render : format -> violations:Source_scan.violation list -> string
(** Render a whole report, one line per violation. Deterministic for a
    deterministic input order. *)
