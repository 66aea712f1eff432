(* The baseline grandfathers existing violations per (rule, file) COUNT
   rather than per line, so unrelated edits that shift line numbers do
   not invalidate it. Introducing an additional violation of a rule in a
   file (or in a new file) trips --check, and so does fixing one without
   lowering its count here. *)

module M = Map.Make (String)

type t = int M.t

let key rule file = Rule.id rule ^ " " ^ file

let of_violations vs =
  List.fold_left
    (fun m (v : Source_scan.violation) ->
      let k = key v.rule v.file in
      M.add k (1 + Option.value ~default:0 (M.find_opt k m)) m)
    M.empty vs

let load path =
  if not (Sys.file_exists path) then Ok M.empty
  else
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go m lineno =
          match input_line ic with
          | exception End_of_file -> Ok m
          | line ->
              let line = String.trim line in
              if String.length line = 0 || line.[0] = '#' then go m (lineno + 1)
              else begin
                match String.split_on_char ' ' line with
                | [ rule; file; count ] -> (
                    match (Rule.of_id rule, int_of_string_opt count) with
                    | Some r, Some c when c > 0 -> go (M.add (key r file) c m) (lineno + 1)
                    | _ ->
                        Error (Printf.sprintf "%s:%d: malformed baseline entry" path lineno))
                | _ -> Error (Printf.sprintf "%s:%d: malformed baseline entry" path lineno)
              end
        in
        go M.empty 1)

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        "# lifeguard-lint baseline: grandfathered violations as `RULE FILE COUNT`.\n\
         # Regenerate with: dune exec bin/lifeguard_lint.exe -- --update-baseline\n\
         # `lifeguard_lint --check` fails on a count above the baseline, and on one below it.\n";
      M.iter (fun k c -> Printf.fprintf oc "%s %d\n" k c) t)

type verdict = {
  fresh : (string * int * int * Source_scan.violation list) list;
      (* key, allowed, found, the violations at that key *)
  stale : (string * int * int) list; (* key, allowed, found *)
}

let check t vs =
  let current = of_violations vs in
  let fresh =
    M.fold
      (fun k found acc ->
        let allowed = Option.value ~default:0 (M.find_opt k t) in
        if found > allowed then
          let here =
            List.filter (fun (v : Source_scan.violation) -> String.equal (key v.rule v.file) k) vs
          in
          (k, allowed, found, here) :: acc
        else acc)
      current []
    |> List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b)
  in
  let stale =
    M.fold
      (fun k allowed acc ->
        let found = Option.value ~default:0 (M.find_opt k current) in
        if found < allowed then (k, allowed, found) :: acc else acc)
      t []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  { fresh; stale }
