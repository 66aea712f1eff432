type params = {
  h15_per_day : float;
  ih : float;
  th : float;
  updates_per_poison : float;
}

let default_params = { h15_per_day = 253.0; ih = 0.92; th = 0.01; updates_per_poison = 1.0 }

let survival durations ~seconds =
  let n = Array.length durations in
  if n = 0 then invalid_arg "Load_model: empty duration sample";
  let alive = Array.fold_left (fun acc d -> if d >= seconds then acc + 1 else acc) 0 durations in
  float_of_int alive /. float_of_int n

(* Daily poisonable outages lasting at least [d_minutes], extrapolating
   from the 15-minute anchor using the empirical survival function of
   [durations] (seconds). *)
let p_of_d params ~durations ~d_minutes =
  let anchor = params.h15_per_day /. (params.ih *. params.th) in
  let s_d = survival durations ~seconds:(d_minutes *. 60.0) in
  let s_15 = survival durations ~seconds:(15.0 *. 60.0) in
  if s_15 <= 0.0 then 0.0 else anchor *. (s_d /. s_15)

let daily_path_changes params ~durations ~i ~t ~d_minutes =
  i *. t *. p_of_d params ~durations ~d_minutes *. params.updates_per_poison

type grid_row = { d_minutes : float; t : float; i : float; changes : float }

let table2 params ~durations =
  let ds = [ 5.0; 15.0; 60.0 ] in
  let ts = [ 0.5; 1.0 ] in
  let is_ = [ 0.01; 0.1; 0.5 ] in
  List.concat_map
    (fun d_minutes ->
      List.concat_map
        (fun t ->
          List.map
            (fun i ->
              { d_minutes; t; i; changes = daily_path_changes params ~durations ~i ~t ~d_minutes })
            is_)
        ts)
    ds
