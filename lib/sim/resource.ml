type t = {
  mutable free_at : Clock.time;
  mutable busy_time : Clock.time;
  mutable wait_time : Clock.time;
  mutable acquisitions : int;
}

let create () = { free_at = 0; busy_time = 0; wait_time = 0; acquisitions = 0 }

let acquire t ~now ~hold =
  if hold < 0 then invalid_arg "Resource.acquire: negative hold";
  let grant = max now t.free_at in
  t.wait_time <- t.wait_time + (grant - now);
  t.busy_time <- t.busy_time + hold;
  t.free_at <- grant + hold;
  t.acquisitions <- t.acquisitions + 1;
  t.free_at

let busy_time t = t.busy_time
let wait_time t = t.wait_time
let acquisitions t = t.acquisitions
