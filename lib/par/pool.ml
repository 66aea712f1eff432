let default_jobs () = Domain.recommended_domain_count ()

let run_trials ~jobs thunks =
  if jobs <= 1 then List.map (fun thunk -> thunk ()) thunks
  else begin
    let thunks = Array.of_list thunks in
    let n = Array.length thunks in
    let slots = Array.make n None in
    let next = Atomic.make 0 in
    (* Each domain, the caller included, claims the next index until none
       is left, and only the claimer writes that slot. *)
    let rec claim () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        slots.(i) <- Some (match thunks.(i) () with v -> Ok v | exception e -> Error e);
        claim ()
      end
    in
    let workers = ref [] in
    (* If a spawn fails, the workers already running drain the list, so
       joining them still returns before the failure propagates. *)
    Fun.protect
      ~finally:(fun () -> List.iter Domain.join !workers)
      (fun () ->
        for _ = 2 to min jobs n do
          workers := Domain.spawn claim :: !workers
        done;
        claim ());
    (* Every slot is written once the workers are joined; scanning them in
       submission order re-raises the earliest-submitted failure. *)
    Array.to_list
      (Array.map
         (function Some (Ok v) -> v | Some (Error e) -> raise e | None -> assert false)
         slots)
  end
