(* Interprocedural call graph over the library tree and the files that
   call into it (bin/, examples/, perfbench/).

   One pass parses every .ml handed in (the driver parses once and shares
   the AST with the syntactic scan), collects the module-level value
   definitions of each file, and resolves cross-module value references —
   module-qualified paths through sibling modules ([Speaker.create]) and
   library umbrella modules ([Bgp.Speaker.create]), [open]s (file-level
   and [let open]) and module aliases ([module R = Retry]) — into edges.
   The core is functor-free, so module identity is syntactic: a file
   lib/<dir>/<mod>.ml is module <Mod> of library <dir> (library names are
   read from the dune file when it disagrees with the directory, e.g.
   lib/core -> lifeguard).

   Like the rest of lifeguard-lint this is untyped and heuristic: a
   reference that cannot be resolved becomes an "external" (Effects
   interprets the primitive ones — Unix.gettimeofday, Random.int, ...),
   and a bare name shadowed by a local binding may over-approximate an
   edge. Over-approximation errs toward reporting, and reports land in
   the baseline, not the build. *)

open Parsetree

type def = {
  id : int;
  file : string;
  path : string list;  (** module path within the file, value name last *)
  display : string;  (** e.g. ["Bgp.Speaker.create"] *)
  line : int;
  col : int;
  exported : bool;
      (** listed in the sibling [.mli] (or no [.mli]: everything is) *)
  mutable_global : bool;
      (** module-level non-function binding whose RHS builds a mutable
          container — the state [LG-EFF-GLOBALMUT] protects *)
  kind : Source_scan.file_kind;
  mutable calls : (int * int) list;  (** resolved (callee id, line), source order *)
  mutable externals : (string list * int) list;
      (** unresolved qualified/primitive references (path, line) *)
  mutable catchall_line : int option;  (** first catch-all [try] handler *)
}

type t = {
  defs : def array;
  sccs : int list list;  (** callee-first: each SCC after all it calls into *)
}

(* ---------------- small syntactic helpers (mirrors Source_scan) ------- *)

let path_of_lident li =
  let rec go acc = function
    | Longident.Lident s -> Some (s :: acc)
    | Longident.Ldot (l, s) -> go (s :: acc) l
    | Longident.Lapply _ -> None
  in
  go [] li

let is_fun_expr e =
  let rec go e =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ -> true
    | Pexp_constraint (e, _) | Pexp_newtype (_, e) -> go e
    | _ -> false
  in
  go e

let mutable_creators =
  [ [ "ref" ]; [ "Hashtbl"; "create" ]; [ "Buffer"; "create" ]; [ "Array"; "make" ];
    [ "Array"; "init" ]; [ "Array"; "create_float" ]; [ "Bytes"; "create" ];
    [ "Bytes"; "make" ]; [ "Queue"; "create" ]; [ "Stack"; "create" ];
    [ "Atomic"; "make" ] ]

let path_equal a b = List.equal String.equal a b
let joined p = String.concat "." p

let creates_mutable rhs =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_fun _ | Pexp_function _ -> ()
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
              match path_of_lident txt with
              | Some p when List.exists (path_equal p) mutable_creators -> found := true
              | _ -> ())
          | _ -> ());
          match e.pexp_desc with
          | Pexp_fun _ | Pexp_function _ -> ()
          | _ -> Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it rhs;
  !found

(* ---------------- per-file collection -------------------------------- *)

type file_info = {
  fi_path : string;
  fi_dir : string;
  fi_module : string;  (** capitalized basename *)
  fi_kind : Source_scan.file_kind;
  (* joined def path -> def id *)
  fi_defs : (string, int) Hashtbl.t;
  (* module aliases: (scope, name, target path), file order *)
  mutable fi_aliases : (string list * string * string list) list;
  (* opens: (scope they appear in, opened path) *)
  mutable fi_opens : (string list * string list) list;
}

type pre_def = {
  pd_file : string;
  pd_path : string list;
  pd_scope : string list;  (** enclosing module path (path minus name) *)
  pd_line : int;
  pd_col : int;
  pd_named : bool;  (** false for [let () = ...] and toplevel expressions *)
  pd_mutable : bool;
  pd_body : expression;
}

let module_name_of_file f =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename f))

(* The library name for a source directory: `(name X)` from its dune
   file when present (lib/core is library `lifeguard`), the directory
   basename otherwise (fixture corpora have no dune). *)
let lib_name_of_dir dir =
  let from_dune path =
    match open_in_bin path with
    | exception Sys_error _ -> None
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let len = in_channel_length ic in
            let text = really_input_string ic len in
            let n = String.length text in
            let rec find i =
              if i + 5 > n then None
              else if String.sub text i 5 = "(name" then begin
                let rec skip j =
                  if j < n && (text.[j] = ' ' || text.[j] = '\n' || text.[j] = '\t') then
                    skip (j + 1)
                  else j
                in
                let s = skip (i + 5) in
                let rec tok j =
                  if
                    j < n
                    && (match text.[j] with
                       | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
                       | _ -> false)
                  then tok (j + 1)
                  else j
                in
                let e = tok s in
                if e > s then Some (String.sub text s (e - s)) else None
              end
              else find (i + 1)
            in
            find 0)
  in
  match from_dune (Filename.concat dir "dune") with
  | Some n -> n
  | None -> Filename.basename dir

(* Exported value paths of a file, per its sibling .mli. [None] means no
   (readable) .mli: the whole surface is exported. *)
let exports_of_mli ml_path =
  let mli = Filename.remove_extension ml_path ^ ".mli" in
  if not (Sys.file_exists mli) then None
  else
    match
      let ic = open_in_bin mli in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let lexbuf = Lexing.from_channel ic in
          Location.init lexbuf mli;
          Parse.interface lexbuf)
    with
    | exception _ -> None
    | items ->
        let out = Hashtbl.create 32 in
        let rec walk prefix items =
          List.iter
            (fun (si : signature_item) ->
              match si.psig_desc with
              | Psig_value vd -> Hashtbl.replace out (prefix ^ vd.pval_name.txt) ()
              | Psig_module { pmd_name = { txt = Some m; _ }; pmd_type; _ } -> (
                  match pmd_type.pmty_desc with
                  | Pmty_signature s -> walk (prefix ^ m ^ ".") s
                  | _ -> ())
              | _ -> ())
            items
        in
        walk "" items;
        Some out

(* ---------------- build ---------------------------------------------- *)

let build ~(files : (string * structure * Source_scan.file_kind) list) =
  let files = List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) files in
  (* Directory tables. *)
  let dirs = Hashtbl.create 8 in (* dir -> (Module name -> file path) *)
  let lib_of_dir = Hashtbl.create 8 in
  let umbrella = Hashtbl.create 8 in (* capitalized lib name -> dir *)
  List.iter
    (fun (f, _, (kind : Source_scan.file_kind)) ->
      let dir = Filename.dirname f in
      let mods =
        match Hashtbl.find_opt dirs dir with
        | Some m -> m
        | None ->
            let m = Hashtbl.create 8 in
            Hashtbl.add dirs dir m;
            let lib = lib_name_of_dir dir in
            Hashtbl.add lib_of_dir dir lib;
            (* Only libraries can be named from another directory. *)
            if kind.in_lib then Hashtbl.replace umbrella (String.capitalize_ascii lib) dir;
            m
      in
      Hashtbl.replace mods (module_name_of_file f) f)
    files;
  (* Pass 1: definitions, aliases, opens. *)
  let infos = Hashtbl.create 32 in (* file -> file_info *)
  let pre = ref [] in (* pre_defs, reversed *)
  let n_defs = ref 0 in
  List.iter
    (fun (f, str, kind) ->
      let fi =
        {
          fi_path = f;
          fi_dir = Filename.dirname f;
          fi_module = module_name_of_file f;
          fi_kind = kind;
          fi_defs = Hashtbl.create 32;
          fi_aliases = [];
          fi_opens = [];
        }
      in
      Hashtbl.add infos f fi;
      let push scope path loc rhs ~named =
        let p = loc.Location.loc_start in
        pre :=
          {
            pd_file = f;
            pd_path = path;
            pd_scope = scope;
            pd_line = p.Lexing.pos_lnum;
            pd_col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
            pd_named = named;
            pd_mutable = named && (not (is_fun_expr rhs)) && creates_mutable rhs;
            pd_body = rhs;
          }
          :: !pre;
        incr n_defs
      in
      let add_def scope name loc rhs =
        let path = scope @ [ name ] in
        let key = joined path in
        if not (Hashtbl.mem fi.fi_defs key) then begin
          Hashtbl.add fi.fi_defs key !n_defs;
          push scope path loc rhs ~named:true
        end
      in
      (* [let () = ...], [let _ = ...] and bare toplevel expressions: no
         name to call them by, but their references count (a bin or
         example file often does all its work in one). *)
      let add_unnamed scope loc rhs = push scope (scope @ [ "()" ]) loc rhs ~named:false in
      let rec pat_names (p : pattern) =
        match p.ppat_desc with
        | Ppat_var { txt; loc } -> [ (txt, loc) ]
        | Ppat_constraint (p, _) | Ppat_alias (p, _) -> pat_names p
        | _ -> []
      in
      let rec module_shape me =
        match me.pmod_desc with
        | Pmod_structure s -> `Structure s
        | Pmod_constraint (me, _) -> module_shape me
        | Pmod_ident { txt; _ } -> (
            match path_of_lident txt with Some p -> `Alias p | None -> `Other)
        | _ -> `Other
      in
      let rec walk_str scope items =
        List.iter
          (fun (si : structure_item) ->
            match si.pstr_desc with
            | Pstr_value (_, vbs) ->
                List.iter
                  (fun vb ->
                    match pat_names vb.pvb_pat with
                    | [] -> add_unnamed scope vb.pvb_loc vb.pvb_expr
                    | names ->
                        List.iter (fun (name, loc) -> add_def scope name loc vb.pvb_expr) names)
                  vbs
            | Pstr_eval (e, _) -> add_unnamed scope si.pstr_loc e
            | Pstr_module { pmb_name = { txt = Some m; _ }; pmb_expr; _ } -> (
                match module_shape pmb_expr with
                (* lint: allow LG-PERF-APPEND (one element at bounded module depth) *)
                | `Structure s -> walk_str (scope @ [ m ]) s
                | `Alias p -> fi.fi_aliases <- (scope, m, p) :: fi.fi_aliases
                | `Other -> ())
            | Pstr_recmodule mbs ->
                List.iter
                  (fun { pmb_name; pmb_expr; _ } ->
                    match (pmb_name.txt, module_shape pmb_expr) with
                    (* lint: allow LG-PERF-APPEND (one element at bounded module depth) *)
                    | Some m, `Structure s -> walk_str (scope @ [ m ]) s
                    | Some m, `Alias p -> fi.fi_aliases <- (scope, m, p) :: fi.fi_aliases
                    | _ -> ())
                  mbs
            | Pstr_open { popen_expr; _ } -> (
                match popen_expr.pmod_desc with
                | Pmod_ident { txt; _ } -> (
                    match path_of_lident txt with
                    | Some p -> fi.fi_opens <- (scope, p) :: fi.fi_opens
                    | None -> ())
                | _ -> ())
            | Pstr_include { pincl_mod; _ } -> (
                (* `include M` re-exports M's values unqualified: treat as
                   an open for resolution purposes. *)
                match pincl_mod.pmod_desc with
                | Pmod_ident { txt; _ } -> (
                    match path_of_lident txt with
                    | Some p -> fi.fi_opens <- (scope, p) :: fi.fi_opens
                    | None -> ())
                | _ -> ())
            | _ -> ())
          items
      in
      walk_str [] str)
    files;
  let pre = Array.of_list (List.rev !pre) in
  (* Materialize defs with displays and exports. *)
  let export_tables = Hashtbl.create 32 in
  let exported (pd : pre_def) =
    let tbl =
      match Hashtbl.find_opt export_tables pd.pd_file with
      | Some t -> t
      | None ->
          let t = exports_of_mli pd.pd_file in
          Hashtbl.add export_tables pd.pd_file t;
          t
    in
    pd.pd_named && match tbl with None -> true | Some t -> Hashtbl.mem t (joined pd.pd_path)
  in
  let display_of (pd : pre_def) =
    let fi = Hashtbl.find infos pd.pd_file in
    let lib = String.capitalize_ascii (Hashtbl.find lib_of_dir fi.fi_dir) in
    let prefix = if String.equal lib fi.fi_module then [ lib ] else [ lib; fi.fi_module ] in
    joined (prefix @ pd.pd_path)
  in
  let defs =
    Array.mapi
      (fun id pd ->
        {
          id;
          file = pd.pd_file;
          path = pd.pd_path;
          display = display_of pd;
          line = pd.pd_line;
          col = pd.pd_col;
          exported = exported pd;
          mutable_global = pd.pd_mutable;
          kind = (Hashtbl.find infos pd.pd_file).fi_kind;
          calls = [];
          externals = [];
          catchall_line = None;
        })
      pre
  in
  (* ---------------- resolution --------------------------------------- *)
  let lookup_in_file file path =
    match Hashtbl.find_opt infos file with
    | None -> None
    | Some fi -> Hashtbl.find_opt fi.fi_defs (joined path)
  in
  (* Expand a leading module alias of [path] using [fi]'s alias table,
     innermost scope first. One level only; chains re-enter via retry. *)
  let expand_alias fi scope path =
    match path with
    | [] -> None
    | head :: rest ->
        let applicable (ascope, name, _) =
          String.equal name head
          &&
          let rec prefix a b =
            match (a, b) with
            | [], _ -> true
            | x :: xs, y :: ys when String.equal x y -> prefix xs ys
            | _ -> false
          in
          prefix ascope scope
        in
        (* innermost (longest scope) applicable alias wins *)
        let best =
          List.fold_left
            (fun acc ((ascope, _, _) as a) ->
              if applicable a then
                match acc with
                | Some (bscope, _, _) when List.length bscope >= List.length ascope -> acc
                | _ -> Some a
              else acc)
            None fi.fi_aliases
        in
        Option.map (fun (_, _, target) -> target @ rest) best
  in
  let module_file dir m =
    match Hashtbl.find_opt dirs dir with
    | None -> None
    | Some mods -> Hashtbl.find_opt mods m
  in
  (* Absolute resolution: sibling module of [dir], or umbrella library
     module, possibly through one alias hop inside the target file. *)
  let rec resolve_abs ~depth dir path =
    if depth > 3 then None
    else
      match path with
      | [] | [ _ ] -> None
      | m :: rest -> (
          match module_file dir m with
          | Some f' -> lookup_deep ~depth f' rest
          | None -> (
              match Hashtbl.find_opt umbrella m with
              | None -> None
              | Some dir' -> (
                  match rest with
                  | [] -> None
                  | m2 :: rest2 -> (
                      match module_file dir' m2 with
                      | Some f' when rest2 <> [] -> lookup_deep ~depth f' rest2
                      | Some f' -> lookup_in_file f' rest2
                      | None -> (
                          (* a value or alias of the umbrella module itself,
                             e.g. Prng.int, or Experiments.R with
                             module R = Runner *)
                          let lib = Hashtbl.find lib_of_dir dir' in
                          match module_file dir' (String.capitalize_ascii lib) with
                          | None -> None
                          | Some uf -> lookup_deep ~depth uf rest)))))
  and lookup_deep ~depth f path =
    match lookup_in_file f path with
    | Some id -> Some id
    | None -> (
        (* nested module in f, or an alias defined in f *)
        match Hashtbl.find_opt infos f with
        | None -> None
        | Some fi -> (
            match expand_alias fi [] path with
            | Some p' when depth <= 3 ->
                resolve_abs ~depth:(depth + 1) fi.fi_dir p'
            | _ -> None))
  in
  let resolve fi ~scope ~local_opens ~local_aliases path =
    let path =
      (* local `let module R = Retry in` aliases first, then file-level *)
      match path with
      | head :: rest -> (
          match List.assoc_opt head local_aliases with
          | Some target -> target @ rest
          | None -> (
              match expand_alias fi scope path with Some p -> p | None -> path))
      | [] -> path
    in
    (* enclosing module scopes, innermost first, then the file toplevel *)
    let rec scopes acc s =
      match s with [] -> List.rev ([] :: acc) | _ :: _ -> scopes (s :: acc) (List.rev (List.tl (List.rev s)))
    in
    let in_scope =
      List.find_map (fun pre -> lookup_in_file fi.fi_path (pre @ path)) (scopes [] scope)
    in
    match in_scope with
    | Some id -> Some id
    | None -> (
        (* file-level opens applicable to this scope + local opens *)
        let file_opens =
          List.filter_map
            (fun (oscope, p) ->
              let rec prefix a b =
                match (a, b) with
                | [], _ -> true
                | x :: xs, y :: ys when String.equal x y -> prefix xs ys
                | _ -> false
              in
              if prefix oscope scope then Some p else None)
            fi.fi_opens
        in
        (* An opened path may itself be relative to an earlier open:
           [open Workloads] then [let open Scenarios.Case_study in]. *)
        let opens = local_opens @ file_opens in
        let opens =
          opens @ List.concat_map (fun o -> List.map (fun fo -> fo @ o) file_opens) opens
        in
        let via_open =
          List.find_map
            (fun o ->
              match lookup_in_file fi.fi_path (o @ path) with
              | Some id -> Some id
              | None -> resolve_abs ~depth:0 fi.fi_dir (o @ path))
            opens
        in
        match via_open with
        | Some id -> Some id
        | None -> resolve_abs ~depth:0 fi.fi_dir path)
  in
  (* Pass 2: edges, externals, catch-alls per definition body. *)
  Array.iteri
    (fun id pd ->
      let def = defs.(id) in
      let fi = Hashtbl.find infos pd.pd_file in
      let local_opens = ref [] in
      let local_aliases = ref [] in
      let calls = ref [] in
      let externals = ref [] in
      let seen_edges = Hashtbl.create 8 in
      let reference txt (loc : Location.t) =
        match path_of_lident txt with
        | None -> ()
        | Some p -> (
            let line = loc.Location.loc_start.Lexing.pos_lnum in
            match
              resolve fi ~scope:pd.pd_scope ~local_opens:!local_opens
                ~local_aliases:!local_aliases p
            with
            | Some callee when callee <> id ->
                if not (Hashtbl.mem seen_edges callee) then begin
                  Hashtbl.add seen_edges callee ();
                  calls := (callee, line) :: !calls
                end
            | Some _ -> ()
            | None -> if List.length p > 1 then externals := (p, line) :: !externals
              else
                (* bare names only matter when they are stdlib primitives
                   (print_endline, open_in, ...): keep them for Effects,
                   which filters against its primitive tables. *)
                externals := (p, line) :: !externals)
      in
      let is_catch_all (p : pattern) =
        let rec go p =
          match p.ppat_desc with
          | Ppat_any -> true
          | Ppat_alias (p, _) | Ppat_constraint (p, _) -> go p
          | Ppat_or (a, b) -> go a || go b
          | _ -> false
        in
        go p
      in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun it e ->
              match e.pexp_desc with
              | Pexp_ident { txt; loc } -> reference txt loc
              | Pexp_try (_, cases) ->
                  if Option.is_none def.catchall_line then
                    List.iter
                      (fun c ->
                        if is_catch_all c.pc_lhs && Option.is_none def.catchall_line then
                          def.catchall_line <-
                            Some c.pc_lhs.ppat_loc.Location.loc_start.Lexing.pos_lnum)
                      cases;
                  Ast_iterator.default_iterator.expr it e
              | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }, body)
                -> (
                  match path_of_lident txt with
                  | Some p ->
                      local_opens := p :: !local_opens;
                      it.expr it body;
                      local_opens := List.tl !local_opens
                  | None -> it.expr it body)
              | Pexp_letmodule
                  ({ txt = Some m; _ }, { pmod_desc = Pmod_ident { txt; _ }; _ }, body) -> (
                  match path_of_lident txt with
                  | Some p ->
                      local_aliases := (m, p) :: !local_aliases;
                      it.expr it body;
                      local_aliases := List.tl !local_aliases
                  | None -> it.expr it body)
              | _ -> Ast_iterator.default_iterator.expr it e);
        }
      in
      it.expr it pd.pd_body;
      def.calls <- List.rev !calls;
      def.externals <- List.rev !externals)
    pre;
  (* ---------------- Tarjan SCC (callee-first emission order) ---------- *)
  let n = Array.length defs in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let onstack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    onstack.(v) <- true;
    List.iter
      (fun (w, _) ->
        if index.(w) = -1 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if onstack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      defs.(v).calls;
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            onstack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      sccs := pop [] :: !sccs
    end
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  { defs; sccs = List.rev !sccs }
