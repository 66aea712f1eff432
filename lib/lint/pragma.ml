(* Comment-pragma suppressions: `(* lint: allow LG-EFF-CLOCK *)` (one or
   more rule ids, comma- or space-separated) silences matching violations
   reported on the pragma's own line or on the line directly below it —
   so the pragma can ride at the end of the offending line or sit on its
   own line above a definition.

   Parsing is a plain text scan over the file, independent of the AST
   walk: compiler-libs drops comments during parsing, and a line-based
   scan keeps the pragma usable on lines the parser attributes to a
   different location (e.g. the `let` of a multi-line binding). *)

type t = (int * string list) list
(* (line, rule ids), 1-based, ascending. *)

let marker = "lint: allow"

(* Extract rule ids out of the pragma text following [marker]: tokens
   starting with "LG-", stopping at the comment close. *)
let rules_of_tail tail =
  let tail =
    match String.index_opt tail '*' with
    | Some i when i + 1 < String.length tail && tail.[i + 1] = ')' -> String.sub tail 0 i
    | _ -> tail
  in
  String.split_on_char ' ' tail
  |> List.concat_map (String.split_on_char ',')
  |> List.filter_map (fun tok ->
         let tok = String.trim tok in
         if String.length tok > 3 && String.sub tok 0 3 = "LG-" then Some tok else None)

let find_marker line =
  let n = String.length line and m = String.length marker in
  let rec go i =
    if i + m > n then None
    else if String.sub line i m = marker then Some (i + m)
    else go (i + 1)
  in
  go 0

(* lint: allow LG-DEAD-EXPORT (seam: test_lint.ml's pragma unit test) *)
let of_lines lines =
  List.rev
  @@ snd
  @@ List.fold_left
       (fun (lineno, acc) line ->
         match find_marker line with
         | None -> (lineno + 1, acc)
         | Some i -> (
             match rules_of_tail (String.sub line i (String.length line - i)) with
             | [] -> (lineno + 1, acc)
             | rules -> (lineno + 1, (lineno, rules) :: acc)))
       (1, []) lines

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> []
  | text -> of_lines (String.split_on_char '\n' text)

(* lint: allow LG-DEAD-EXPORT (seam: test_lint.ml's pragma unit test) *)
let suppresses t ~rule ~line =
  List.exists
    (fun (pline, rules) ->
      (pline = line || pline = line - 1) && List.exists (String.equal rule) rules)
    t

(* Filter a violation list, loading each file's pragmas at most once.
   Files without the marker string cost one read and no allocation of
   pragma entries. *)
let filter violations =
  let cache : (string, t) Hashtbl.t = Hashtbl.create 8 in
  let pragmas file =
    match Hashtbl.find_opt cache file with
    | Some p -> p
    | None ->
        let p = load file in
        Hashtbl.add cache file p;
        p
  in
  List.filter
    (fun (v : Source_scan.violation) ->
      not (suppresses (pragmas v.file) ~rule:(Rule.id v.rule) ~line:v.line))
    violations
