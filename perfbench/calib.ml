(* Host-speed calibration for the end-to-end figures.

   The benchmark host may be shared with other machines' work, and its
   speed then drifts by a factor of up to two within a minute while the
   workload's own work stays the same. The slowdown comes from the shared
   caches: a compute-only kernel hardly sees it. So while a timed region
   runs, a fixed stdlib-only kernel (3000 random lookups in a 100k-entry
   hash table of a few MiB, then a 500-element list) is timed on a 20 ms
   timer signal, on the same core and interleaved with the workload. On
   a 2-vCPU Xeon VM, over fleet-day runs while the host's speed drifted,
   its median tracked the workload's wall time with a correlation of 0.9;
   the wall time grew as the kernel's to the power 0.64 in one session
   and 0.81 in another, and about as the kernel's own time on
   paper-batch and faults-storm, hence [sensitivity].

   A figure is the region's time less the kernels' own time, multiplied
   by ([reference] / kernel median) ** [sensitivity]: seconds as they
   would read on a host where one kernel takes [reference]. The kernel shares the caches with
   the workload, so a change to the workload's cache footprint moves the
   kernel a little too; and its table adds a few MiB to the live heap,
   so to peak_rss_mb. *)

let interval = 0.02
let reference = 600e-6
let sensitivity = 0.8

let table =
  lazy
    (let h = Hashtbl.create 4096 in
     for i = 1 to 100_000 do
       Hashtbl.replace h ((i * 7919) land 0xfffff) i
     done;
     h)

let round = ref 0

let kernel h =
  incr round;
  let acc = ref 0 in
  for i = 1 to 3_000 do
    match Hashtbl.find_opt h (((i * 104729) + !round) land 0xfffff) with
    | Some a -> acc := !acc + a
    | None -> ()
  done;
  let l = List.init 500 (fun i -> (i, !round)) in
  ignore (Sys.opaque_identity (!acc + List.length l))

let set_timer every =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = every; it_value = every })

(* Kernel times are kept in a preallocated array. Samples beyond its
   capacity (20 minutes) are dropped. *)
let times = Array.make 65_536 0.0

(* [sample f] runs [f] with the kernel timed every [interval]; it returns
   [f]'s result and the kernel's times, in seconds. *)
let sample f =
  let h = Lazy.force table in
  let n = ref 0 in
  let tick _ =
    if !n < Array.length times then begin
      let t0 = Meter.now () in
      kernel h;
      times.(!n) <- Meter.now () -. t0;
      incr n
    end
  in
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle tick);
  set_timer interval;
  let r =
    Fun.protect
      ~finally:(fun () ->
        set_timer 0.0;
        Sys.set_signal Sys.sigalrm Sys.Signal_default)
      f
  in
  (r, Array.to_list (Array.sub times 0 !n))

(* Time the kernels took out of a region. *)
let busy times = List.fold_left ( +. ) 0.0 times

(* The factor that turns this host's seconds into reference seconds; 1
   when the region was too short to sample. *)
let scale times =
  if times = [] then 1.0 else Float.pow (reference /. Meter.median times) sensitivity
