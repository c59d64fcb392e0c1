type t = {
  window : Clock.time;
  mutable window_start : Clock.time;
  mutable window_busy : Clock.time;
  mutable rho : float;
  mutable total_busy : Clock.time;
}

let create ?(window = Clock.ms 100) () =
  if window <= 0 then invalid_arg "Queue_model.create: window must be positive";
  { window; window_start = 0; window_busy = 0; rho = 0.; total_busy = 0 }

let refresh t ~now =
  if now - t.window_start >= t.window then begin
    let span = max 1 (now - t.window_start) in
    t.rho <- min 0.95 (float_of_int t.window_busy /. float_of_int span);
    t.window_start <- now;
    t.window_busy <- 0
  end

let service t ~now ~hold =
  if hold < 0 then invalid_arg "Queue_model.service: negative hold";
  refresh t ~now;
  t.window_busy <- t.window_busy + hold;
  t.total_busy <- t.total_busy + hold;
  let delay = t.rho /. (1. -. t.rho) *. float_of_int hold /. 2. in
  now + hold + int_of_float delay

let utilization t = t.rho
let busy_time t = t.total_busy
