type t =
  | Dom_mut
  | Det_random
  | Det_clock
  | Det_polyeq
  | Det_hashkey
  | Perf_append
  | Perf_scan
  | Perf_structeq
  | Perf_boxed
  | Mli_missing
  | Obs_printf
  | Rob_exn
  | Rob_snapshot
  | Rob_marshal
  | Eff_clock
  | Eff_random
  | Eff_globalmut
  | Plan_stale
  | Dead_export

let all =
  [ Dom_mut; Det_random; Det_clock; Det_polyeq; Det_hashkey; Perf_append; Perf_scan;
    Perf_structeq; Perf_boxed; Mli_missing; Obs_printf; Rob_exn; Rob_snapshot; Rob_marshal; Eff_clock;
    Eff_random; Eff_globalmut; Plan_stale; Dead_export ]

let id = function
  | Dom_mut -> "LG-DOM-MUT"
  | Det_random -> "LG-DET-RANDOM"
  | Det_clock -> "LG-DET-CLOCK"
  | Det_polyeq -> "LG-DET-POLYEQ"
  | Det_hashkey -> "LG-DET-HASHKEY"
  | Perf_append -> "LG-PERF-APPEND"
  | Perf_scan -> "LG-PERF-SCAN"
  | Perf_structeq -> "LG-PERF-STRUCTEQ"
  | Perf_boxed -> "LG-PERF-BOXED"
  | Mli_missing -> "LG-MLI-MISSING"
  | Obs_printf -> "LG-OBS-PRINTF"
  | Rob_exn -> "LG-ROB-EXN"
  | Rob_snapshot -> "LG-ROB-SNAPSHOT"
  | Rob_marshal -> "LG-ROB-MARSHAL"
  | Eff_clock -> "LG-EFF-CLOCK"
  | Eff_random -> "LG-EFF-RANDOM"
  | Eff_globalmut -> "LG-EFF-GLOBALMUT"
  | Plan_stale -> "LG-PLAN-STALE"
  | Dead_export -> "LG-DEAD-EXPORT"

let of_id s =
  let rec find = function
    | [] -> None
    | r :: rest -> if String.equal (id r) s then Some r else find rest
  in
  find all

let describe = function
  | Dom_mut ->
      "module-level mutable state in a library reachable from Par-submitted closures; \
       breaks the byte-identical --jobs invariant"
  | Det_random -> "Random.* outside lib/prng; experiments must draw from the seeded Prng"
  | Det_clock -> "wall-clock read (Sys.time / Unix.gettimeofday / Unix.time) in a library"
  | Det_polyeq ->
      "polymorphic compare / Hashtbl.hash / option-sentinel (in)equality; use the \
       module-specific compare or Option.is_some/is_none"
  | Det_hashkey ->
      "Hashtbl keyed by a structured or boxed type; polymorphic hash walks the whole key \
       — use int keys or a keyed table module (e.g. Asn.Table)"
  | Perf_append ->
      "list append (@) building an accumulator inside a let rec or fold; quadratic — \
       accumulate with :: and List.rev, or use List.concat_map"
  | Perf_scan ->
      "List.mem/List.assoc inside a let rec or iteration closure, directly or through a \
       local helper that scans a captured list; quadratic scan — use a Set/Map/Hashtbl"
  | Perf_structeq ->
      "structural =/compare on a BGP path or route (an As_path.t, an announcement's \
       path or an entry's ann) outside lib/bgp; skips the O(1) cached-hash equality — \
       use As_path.equal / Route.announcement_equal"
  | Perf_boxed ->
      "mutable record field of type int64 / int32 / nativeint in a library; every write \
       boxes a fresh value on the heap — keep the words unboxed (e.g. in a Bytes buffer \
       read with Bytes.get_int64_le) or make the field immutable"
  | Mli_missing -> "library module without an .mli; accidental surface"
  | Obs_printf ->
      "bare stdout printing (Printf.printf / Format.printf / print_endline) in a library; \
       route diagnostics through Obs tracing and results through the table writers"
  | Rob_exn ->
      "catch-all exception handler (try ... with _ ->) in a library; swallows programming \
       errors along with the expected failure — match the specific exceptions"
  | Rob_snapshot ->
      "mutable or container-typed record field in a file defining a snapshot [capture] \
       that capture's body never reads; state not covered by the snapshot digest, so \
       replay drift in it goes unnoticed — capture the field or move it out of the \
       snapshotted record"
  | Rob_marshal ->
      "Marshal outside lib/workloads/template.ml; marshalled data embeds code pointers and \
       is valid only inside the running binary — journals and snapshots are documented \
       text formats, and in-process world copies go through Workloads.Template"
  | Eff_clock ->
      "exported library function transitively reaches the wall clock (through any number \
       of wrappers) outside Obs.Clock; breaks determinism — thread simulation time or the \
       injected Obs.Clock instead"
  | Eff_random ->
      "exported library function transitively reaches Random outside lib/prng; draws \
       from the global, --jobs-dependent stream — thread a seeded Prng instead"
  | Eff_globalmut ->
      "exported library function transitively reaches module-level mutable state outside \
       the declared-exempt modules; breaks the share-nothing byte-identical --jobs \
       invariant — allocate the state per world and thread it"
  | Plan_stale ->
      "planner entry point (exported def in a plan subsystem's planner.ml) reaches the \
       clock, Random, or module-level mutable state, directly or transitively; \
       precomputed plans must be a pure function of the world or they are stale the \
       moment they are built — take every input as an argument"
  | Dead_export ->
      "exported library value that nothing outside its own file references (tests do not \
       count); delete it, or drop it from the .mli if its own module still uses it"
