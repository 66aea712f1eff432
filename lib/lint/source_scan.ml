(* The AST pass behind lifeguard-lint.

   Purely syntactic: we parse with compiler-libs ([Parse.implementation])
   and walk the Parsetree with [Ast_iterator], so the pass needs no type
   information, no build artifacts, and no opam deps beyond the compiler
   itself. The price is that every rule is a heuristic over names and
   shapes; the rules below are tuned so that false positives land in the
   checked-in baseline rather than blocking builds. *)

open Parsetree

type file_kind = {
  in_lib : bool;
  prng_exempt : bool;
  obs_exempt : bool;
  bgp_exempt : bool;
  marshal_exempt : bool;
}

let classify path =
  let segs = String.split_on_char '/' path in
  let rec in_lib = function
    | [] | [ _ ] -> false (* a trailing "lib" is a file name, not a dir *)
    | "lib" :: _ -> true
    | _ :: rest -> in_lib rest
  in
  let rec is_template = function
    | [ "lib"; "workloads"; "template.ml" ] -> true
    | _ :: rest -> is_template rest
    | [] -> false
  in
  let rec under_lib name = function
    | "lib" :: d :: _ when String.equal d name -> true
    | _ :: rest -> under_lib name rest
    | [] -> false
  in
  {
    in_lib = in_lib segs;
    prng_exempt = under_lib "prng" segs;
    (* lib/obs IS the sanctioned home for cross-domain observability
       state (per-domain shards merged at read time) and for the sink
       that owns the output channel, so the domain-safety and printing
       rules do not apply to it. *)
    obs_exempt = under_lib "obs" segs;
    (* lib/bgp owns the path and route representations, so its internals
       (the structural fallback in As_path.equal) legitimately compare
       structurally; the STRUCTEQ rule applies everywhere else. *)
    bgp_exempt = under_lib "bgp" segs;
    (* Workloads.Template copies worlds inside the running binary, the
       one use of Marshal whose output never leaves the process. *)
    marshal_exempt = is_template segs;
  }

let lib_kind =
  {
    in_lib = true;
    prng_exempt = false;
    obs_exempt = false;
    bgp_exempt = false;
    marshal_exempt = false;
  }

type violation = {
  rule : Rule.t;
  file : string;
  line : int;
  col : int;
  message : string;
}

let violation rule file (loc : Location.t) message =
  let p = loc.Location.loc_start in
  { rule; file; line = p.Lexing.pos_lnum; col = p.Lexing.pos_cnum - p.Lexing.pos_bol; message }

(* [Longident.flatten] raises on [Lapply]; this returns None instead. *)
let path_of_lident li =
  let rec go acc = function
    | Longident.Lident s -> Some (s :: acc)
    | Longident.Ldot (l, s) -> go (s :: acc) l
    | Longident.Lapply _ -> None
  in
  go [] li

let callee_path (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> path_of_lident txt
  | _ -> None

let last_component p =
  let rec go = function [] -> None | [ x ] -> Some x | _ :: rest -> go rest in
  go p

(* Closures handed to these (by final path component) iterate a
   collection: List.mem inside one is a nested scan. *)
let iteration_components =
  [ "iter"; "iteri"; "map"; "mapi"; "filter"; "filter_map"; "concat_map"; "for_all";
    "exists"; "find"; "find_opt"; "find_map"; "partition"; "init" ]

let fold_components = [ "fold"; "fold_left"; "fold_right" ]

let mutable_creators =
  [ [ "ref" ]; [ "Hashtbl"; "create" ]; [ "Buffer"; "create" ]; [ "Array"; "make" ];
    [ "Array"; "init" ]; [ "Array"; "create_float" ]; [ "Bytes"; "create" ];
    [ "Bytes"; "make" ]; [ "Queue"; "create" ]; [ "Stack"; "create" ] ]

let clock_paths = [ [ "Sys"; "time" ]; [ "Unix"; "gettimeofday" ]; [ "Unix"; "time" ] ]

(* Stdout writers a library has no business calling directly: results go
   through the table writers, diagnostics through Obs. [Printf.eprintf]
   and [Printf.sprintf]/[fprintf] stay legal. *)
let printf_qualified = [ [ "Printf"; "printf" ]; [ "Format"; "printf" ] ]

let printf_bare =
  [ "print_endline"; "print_string"; "print_newline"; "print_int"; "print_float"; "print_char" ]

(* Boxed integer types: a mutable field of one allocates on every write. *)
let boxed_int_types =
  [ [ "int64" ]; [ "int32" ]; [ "nativeint" ]; [ "Int64"; "t" ]; [ "Int32"; "t" ];
    [ "Nativeint"; "t" ] ]

(* Key types over which polymorphic Hashtbl hashing is flat and cheap. *)
let flat_key_types = [ "int"; "string"; "bool"; "char"; "Asn.t" ]

let path_equal a b = List.equal String.equal a b
let path_mem p l = List.exists (path_equal p) l

let joined p = String.concat "." p

let is_fun_expr e =
  let rec go e =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ -> true
    | Pexp_constraint (e, _) | Pexp_newtype (_, e) -> go e
    | _ -> false
  in
  go e

(* [with _ ->] and its aliases/disguises: a handler arm that matches
   every exception. [with e ->] (a variable) is left alone — binding the
   exception usually means it is logged or re-raised. *)
let is_catch_all_pattern (p : pattern) =
  let rec go p =
    match p.ppat_desc with
    | Ppat_any -> true
    | Ppat_alias (p, _) | Ppat_constraint (p, _) -> go p
    | Ppat_or (a, b) -> go a || go b
    | _ -> false
  in
  go p

let is_option_sentinel (e : expression) =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Longident.Lident ("None" | "Some"); _ }, _) -> true
  | _ -> false

(* [As_path] functions whose result is an [As_path.t] (not a projection
   like [length] or a conversion like [to_list]) — comparing one of these
   structurally skips the O(1) pointer/cached-hash equality. *)
let as_path_t_constructors =
  [ "empty"; "plain"; "prepended"; "poisoned"; "poisoned_multi"; "prepend"; "traversed";
    "of_list" ]

(* Does this expression syntactically denote a BGP path or route? Purely
   syntactic (no types): a field access reaching through [Route]
   ([e.Bgp.Route.path], [e.Route.ann]) or an [As_path]-qualified
   identifier/application returning a path. *)
let is_bgp_valued (e : expression) =
  let from_as_path p =
    List.exists (String.equal "As_path") p
    &&
    match last_component p with
    | Some c -> List.exists (String.equal c) as_path_t_constructors
    | None -> false
  in
  match e.pexp_desc with
  | Pexp_field (_, { txt; _ }) -> (
      match path_of_lident txt with
      | Some p -> (
          List.exists (String.equal "Route") p
          &&
          match last_component p with
          | Some ("path" | "ann") -> true
          | _ -> false)
      | None -> false)
  | Pexp_ident { txt; _ } -> (
      match path_of_lident txt with Some p -> from_as_path p | None -> false)
  | Pexp_apply (f, _) -> (
      match callee_path f with Some p -> from_as_path p | None -> false)
  | _ -> false

(* [Hashtbl] operations whose second argument is the key. *)
let keyed_ops = [ "add"; "replace"; "find"; "find_opt"; "mem"; "remove" ]

(* A tuple or record literal, the shape of a structured key built at the
   call site. *)
let rec is_structured_literal (e : expression) =
  match e.pexp_desc with
  | Pexp_tuple _ | Pexp_record _ -> true
  | Pexp_constraint (e, _) -> is_structured_literal e
  | _ -> false

let is_scan_path = function
  | [ "List"; ("mem" | "assoc" | "assoc_opt" | "mem_assoc") ] -> true
  | _ -> false

(* Is this function expression a lookup helper over a captured list
   ([let find k = List.assoc k table] with [table] bound outside it)?
   Applying one in a loop is the same quadratic scan as inlining it. A
   list the helper binds itself (a parameter, a local) is left alone:
   it is not the same list on every call. *)
let wraps_captured_scan (e : expression) =
  is_fun_expr e
  &&
  let bound = ref [] and scanned = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> bound := txt :: !bound
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply (f, args) -> (
              match (callee_path f, List.rev args) with
              | ( Some p,
                  (Asttypes.Nolabel, { pexp_desc = Pexp_ident { txt = Longident.Lident l; _ }; _ })
                  :: _ )
                when is_scan_path p ->
                  scanned := l :: !scanned
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  List.exists (fun l -> not (List.exists (String.equal l) !bound)) !scanned

let flat_key (t : core_type) =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, []) -> (
      match path_of_lident txt with
      | Some p -> List.exists (String.equal (joined p)) flat_key_types
      | None -> false)
  | _ -> false

let scan_structure ~kind ~file str =
  let out = ref [] in
  let add rule loc msg = out := violation rule file loc msg :: !out in
  (* Modules that define their own [compare] / [hash] may use the bare
     name; only unqualified uses of the *polymorphic* ones are flagged. *)
  let toplevel_names = Hashtbl.create 16 in
  let rec collect_names items =
    List.iter
      (fun (si : structure_item) ->
        match si.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match vb.pvb_pat.ppat_desc with
                | Ppat_var { txt; _ } -> Hashtbl.replace toplevel_names txt ()
                | _ -> ())
              vbs
        | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } -> collect_names s
        | _ -> ())
      items
  in
  collect_names str;
  let locally_defined name = Hashtbl.mem toplevel_names name in
  let rec_depth = ref 0 in
  let loop_depth = ref 0 in
  let fold_depth = ref 0 in
  let in_loop () = !rec_depth > 0 || !loop_depth > 0 || !fold_depth > 0 in
  (* Names bound by the enclosing local [let]s, innermost first, each
     with whether it is a lookup helper over a captured list: a
     rebinding shadows. *)
  let local_helpers : (string * bool) list ref = ref [] in
  let is_scan_helper name =
    match List.assoc_opt name !local_helpers with Some h -> h | None -> false
  in
  (* LG-ROB-MARSHAL, in every scanned file: any path into Marshal. *)
  let check_marshal p loc =
    match p with
    | "Marshal" :: _ | "Stdlib" :: "Marshal" :: _ when not kind.marshal_exempt ->
        add Rule.Rob_marshal loc
          (Printf.sprintf
             "%s: marshalled data is valid only inside the running binary; copy worlds \
              with Workloads.Template and persist state as documented text"
             (joined p))
    | _ -> ()
  in
  let check_ident_path p loc =
    check_marshal p loc;
    if (not kind.prng_exempt) && (match p with "Random" :: _ -> true | _ -> false) then
      add Rule.Det_random loc "use the seeded Prng instead of Random"
    else if kind.in_lib then begin
      if path_mem p clock_paths then
        add Rule.Det_clock loc
          (Printf.sprintf "%s reads the wall clock; thread simulation time instead" (joined p));
      if
        (path_equal p [ "compare" ] && not (locally_defined "compare"))
        || path_equal p [ "Stdlib"; "compare" ]
        || path_equal p [ "Pervasives"; "compare" ]
      then add Rule.Det_polyeq loc "polymorphic compare; use the module-specific compare"
      else if path_equal p [ "Hashtbl"; "hash" ] && not (locally_defined "hash") then
        add Rule.Det_polyeq loc "polymorphic Hashtbl.hash; use a module-specific hash";
      if not kind.obs_exempt then begin
        let bare_printer =
          match p with
          | [ name ] -> List.exists (String.equal name) printf_bare && not (locally_defined name)
          | [ "Stdlib"; name ] -> List.exists (String.equal name) printf_bare
          | _ -> false
        in
        if path_mem p printf_qualified || bare_printer then
          add Rule.Obs_printf loc
            (Printf.sprintf
               "%s writes to stdout from a library; use the table writers or Obs tracing"
               (joined p))
      end
    end
  in
  let check_apply f args loc =
    match callee_path f with
    | None -> ()
    | Some p ->
        (* LG-DET-HASHKEY at the call site: a key the type rule below
           never sees, because the table's type is inferred. *)
        (match (p, args) with
        | ([ "Hashtbl"; op ] | [ "Stdlib"; "Hashtbl"; op ]), _ :: (Asttypes.Nolabel, key) :: _
          when kind.in_lib
               && List.exists (String.equal op) keyed_ops
               && is_structured_literal key ->
            add Rule.Det_hashkey key.pexp_loc
              (Printf.sprintf
                 "Hashtbl.%s with a tuple/record key; polymorphic hash walks the key — use \
                  int keys or a keyed table module"
                 op)
        | _ -> ());
        if kind.in_lib && (path_equal p [ "=" ] || path_equal p [ "<>" ]) then begin
          if List.exists (fun (_, a) -> is_option_sentinel a) args then
            add Rule.Det_polyeq loc
              "polymorphic (in)equality against None/Some; use Option.is_some/is_none or a \
               module equal";
          if (not kind.bgp_exempt) && List.exists (fun (_, a) -> is_bgp_valued a) args then
            add Rule.Perf_structeq loc
              "structural (in)equality on a BGP path or route skips the O(1) cached-hash \
               comparison; use As_path.equal / Route.announcement_equal"
        end
        else if
          kind.in_lib
          && (not kind.bgp_exempt)
          && (path_equal p [ "compare" ] || path_equal p [ "Stdlib"; "compare" ]
            || path_equal p [ "Pervasives"; "compare" ])
          && List.exists (fun (_, a) -> is_bgp_valued a) args
        then
          add Rule.Perf_structeq loc
            "structural compare on a BGP path or route walks the whole path; compare \
             through As_path.equal / the cached hash instead"
        else if path_equal p [ "@" ] || path_equal p [ "List"; "append" ] then begin
          if !rec_depth > 0 || !fold_depth > 0 then
            add Rule.Perf_append loc
              "@ inside a let rec or fold is quadratic; accumulate with :: and List.rev"
        end
        else if is_scan_path p && in_loop () then
          add Rule.Perf_scan loc
            (Printf.sprintf "%s inside a loop is a quadratic scan; use a Set/Map/Hashtbl"
               (joined p))
        else
          match p with
          | [ name ] when in_loop () && is_scan_helper name ->
              add Rule.Perf_scan loc
                (Printf.sprintf
                   "%s wraps a List scan of a captured list; applying it inside a loop is a \
                    quadratic scan — keep the values aligned with the list or use a \
                    Set/Map/Hashtbl"
                   name)
          | _ -> ()
  in
  let expr_iter =
    {
      Ast_iterator.default_iterator with
        expr =
          (fun it e ->
            match e.pexp_desc with
            | Pexp_ident { txt; loc } -> (
                match path_of_lident txt with
                | Some p -> check_ident_path p loc
                | None -> ())
            | Pexp_let (rf, vbs, body) ->
                let bump = match rf with Asttypes.Recursive -> true | _ -> false in
                if bump then incr rec_depth;
                List.iter (fun vb -> it.value_binding it vb) vbs;
                if bump then decr rec_depth;
                let outer = !local_helpers in
                List.iter
                  (fun vb ->
                    match vb.pvb_pat.ppat_desc with
                    | Ppat_var { txt; _ } ->
                        local_helpers := (txt, wraps_captured_scan vb.pvb_expr) :: !local_helpers
                    | _ -> ())
                  vbs;
                it.expr it body;
                local_helpers := outer
            | Pexp_try (_, cases) ->
                if kind.in_lib then
                  List.iter
                    (fun c ->
                      if is_catch_all_pattern c.pc_lhs then
                        add Rule.Rob_exn c.pc_lhs.ppat_loc
                          "catch-all exception handler swallows programming errors along \
                           with the expected failure; match the specific exceptions")
                    cases;
                Ast_iterator.default_iterator.expr it e
            | Pexp_apply (f, args) ->
                check_apply f args e.pexp_loc;
                it.expr it f;
                let comp =
                  match callee_path f with Some p -> last_component p | None -> None
                in
                let depth =
                  match comp with
                  | Some c when List.exists (String.equal c) fold_components -> Some fold_depth
                  | Some c when List.exists (String.equal c) iteration_components ->
                      Some loop_depth
                  | _ -> None
                in
                List.iter
                  (fun (_, a) ->
                    match depth with
                    | Some d when is_fun_expr a ->
                        incr d;
                        it.expr it a;
                        decr d
                    | _ -> it.expr it a)
                  args
            | _ -> Ast_iterator.default_iterator.expr it e);
        (* [module M = Marshal], [open Marshal] and [Marshal.( ... )] *)
        module_expr =
          (fun it me ->
            (match me.pmod_desc with
            | Pmod_ident { txt; loc } -> (
                match path_of_lident txt with Some p -> check_marshal p loc | None -> ())
            | _ -> ());
            Ast_iterator.default_iterator.module_expr it me);
        label_declaration =
          (fun it ld ->
            (match (ld.pld_mutable, ld.pld_type.ptyp_desc) with
            | Asttypes.Mutable, Ptyp_constr ({ txt; _ }, []) when kind.in_lib -> (
                match path_of_lident txt with
                | Some p when path_mem p boxed_int_types ->
                    add Rule.Perf_boxed ld.pld_loc
                      (Printf.sprintf
                         "mutable %s field %s: every write allocates a box — keep the words \
                          unboxed (e.g. a Bytes buffer) or the field immutable"
                         (joined p) ld.pld_name.Asttypes.txt)
                | _ -> ())
            | _ -> ());
            Ast_iterator.default_iterator.label_declaration it ld);
        typ =
          (fun it t ->
            (match t.ptyp_desc with
            | Ptyp_constr ({ txt; loc }, key :: _) when kind.in_lib -> (
                match path_of_lident txt with
                | Some [ "Hashtbl"; "t" ] ->
                    if not (flat_key key) then
                      add Rule.Det_hashkey loc
                        "Hashtbl keyed by a structured/boxed type; polymorphic hash walks \
                         the key — use int keys or a keyed table module"
                | _ -> ())
            | _ -> ());
            Ast_iterator.default_iterator.typ it t);
    }
  in
  let it = expr_iter in
  (* A binding whose RHS is (syntactically) a function allocates at call
     time, not load time; anything else evaluated at module level that
     builds a mutable container is shared across domains. *)
  let scan_mutable_rhs rhs =
    let mut_it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun mit e ->
            match e.pexp_desc with
            | Pexp_fun _ | Pexp_function _ -> ()
            | Pexp_apply (f, _) ->
                (match callee_path f with
                | Some p when path_mem p mutable_creators ->
                    add Rule.Dom_mut e.pexp_loc
                      (Printf.sprintf
                         "module-level %s: mutable state shared across Par worker domains"
                         (joined p))
                | _ -> ());
                Ast_iterator.default_iterator.expr mit e
            | _ -> Ast_iterator.default_iterator.expr mit e);
      }
    in
    mut_it.expr mut_it rhs
  in
  let rec walk_structure items = List.iter walk_item items
  and walk_item (si : structure_item) =
    match si.pstr_desc with
    | Pstr_value (rf, vbs) ->
        if kind.in_lib && not kind.obs_exempt then
          List.iter (fun vb -> if not (is_fun_expr vb.pvb_expr) then scan_mutable_rhs vb.pvb_expr) vbs;
        let bump = match rf with Asttypes.Recursive -> true | _ -> false in
        if bump then incr rec_depth;
        List.iter (fun vb -> it.value_binding it vb) vbs;
        if bump then decr rec_depth
    | Pstr_module mb -> walk_module_expr mb.pmb_expr
    | Pstr_recmodule mbs -> List.iter (fun mb -> walk_module_expr mb.pmb_expr) mbs
    | Pstr_include incl -> walk_module_expr incl.pincl_mod
    | _ -> Ast_iterator.default_iterator.structure_item it si
  and walk_module_expr me =
    match me.pmod_desc with
    (* A nested module's structure is still module level; a functor body
       is re-evaluated per application, so only expression rules apply. *)
    | Pmod_structure s -> walk_structure s
    | Pmod_constraint (me, _) -> walk_module_expr me
    | _ -> it.module_expr it me
  in
  walk_structure str;
  (* LG-ROB-SNAPSHOT: a file defining a toplevel [capture] has opted into
     the crash-recovery snapshot contract — every mutable (or
     container-typed, hence mutable-inside) field of every record type
     the file declares must be read somewhere in [capture]'s body, or the
     snapshot digest does not cover it. Purely syntactic like everything else
     here: "read" means the field's name appears as an identifier, field
     access/update, or record-pattern label inside [capture]. *)
  if kind.in_lib then begin
    let container_types = [ "Hashtbl.t"; "Queue.t"; "Stack.t"; "Buffer.t"; "ref" ] in
    let is_container (t : core_type) =
      let rec go (t : core_type) =
        match t.ptyp_desc with
        | Ptyp_constr ({ txt; _ }, args) -> (
            (match path_of_lident txt with
            | Some p -> List.exists (String.equal (joined p)) container_types
            | None -> false)
            || List.exists go args)
        | _ -> false
      in
      go t
    in
    let flagged_fields = ref [] in
    let capture_bodies = ref [] in
    let rec collect items =
      List.iter
        (fun (si : structure_item) ->
          match si.pstr_desc with
          | Pstr_type (_, tds) ->
              List.iter
                (fun td ->
                  match td.ptype_kind with
                  | Ptype_record labels ->
                      List.iter
                        (fun (ld : label_declaration) ->
                          let mutable_field =
                            match ld.pld_mutable with
                            | Asttypes.Mutable -> true
                            | Asttypes.Immutable -> false
                          in
                          if mutable_field || is_container ld.pld_type then
                            flagged_fields :=
                              (ld.pld_name.Asttypes.txt, ld.pld_loc) :: !flagged_fields)
                        labels
                  | _ -> ())
                tds
          | Pstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  match vb.pvb_pat.ppat_desc with
                  | Ppat_var { txt = "capture"; _ } -> capture_bodies := vb.pvb_expr :: !capture_bodies
                  | _ -> ())
                vbs
          | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } -> collect s
          | _ -> ())
        items
    in
    collect str;
    match !capture_bodies with
    | [] -> ()
    | bodies ->
        let referenced = Hashtbl.create 32 in
        let note = function
          | Some p -> (
              match last_component p with
              | Some name -> Hashtbl.replace referenced name ()
              | None -> ())
          | None -> ()
        in
        let ref_it =
          {
            Ast_iterator.default_iterator with
            expr =
              (fun rit e ->
                (match e.pexp_desc with
                | Pexp_ident { txt; _ } -> note (path_of_lident txt)
                | Pexp_field (_, { txt; _ }) | Pexp_setfield (_, { txt; _ }, _) ->
                    note (path_of_lident txt)
                | Pexp_record (fields, _) ->
                    List.iter (fun ({ Location.txt; _ }, _) -> note (path_of_lident txt)) fields
                | _ -> ());
                Ast_iterator.default_iterator.expr rit e);
            pat =
              (fun rit p ->
                (match p.ppat_desc with
                | Ppat_record (fields, _) ->
                    List.iter (fun ({ Location.txt; _ }, _) -> note (path_of_lident txt)) fields
                | Ppat_var { txt; _ } -> Hashtbl.replace referenced txt ()
                | _ -> ());
                Ast_iterator.default_iterator.pat rit p);
          }
        in
        List.iter (fun body -> ref_it.expr ref_it body) bodies;
        List.iter
          (fun (name, loc) ->
            if not (Hashtbl.mem referenced name) then
              add Rule.Rob_snapshot loc
                (Printf.sprintf
                   "mutable field %s is not read by this file's snapshot [capture]; it is not \
                    covered by the snapshot digest"
                   name))
          (List.rev !flagged_fields)
  end;
  List.rev !out

let parse_impl path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Location.init lexbuf path;
      Parse.implementation lexbuf)

let parse_file path =
  match parse_impl path with
  | ast -> Ok ast
  | exception e -> Error (Printexc.to_string e)

let scan_ast ?kind ~file ast =
  let kind = match kind with Some k -> k | None -> classify file in
  scan_structure ~kind ~file ast

(* lint: allow LG-DEAD-EXPORT (seam: test_lint.ml's single-file fixtures) *)
let scan_file ?kind path =
  match parse_file path with
  | Ok ast -> Ok (scan_ast ?kind ~file:path ast)
  | Error e -> Error e

let mli_violations ?(force_lib = false) files =
  List.filter_map
    (fun f ->
      let kind = if force_lib then lib_kind else classify f in
      if
        kind.in_lib
        && Filename.check_suffix f ".ml"
        && not (Sys.file_exists (Filename.chop_suffix f ".ml" ^ ".mli"))
      then
        Some
          {
            rule = Rule.Mli_missing;
            file = f;
            line = 1;
            col = 0;
            message = "library module has no .mli; its whole surface is public";
          }
      else None)
    files

let compare_violation a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare (Rule.id a.rule) (Rule.id b.rule)
