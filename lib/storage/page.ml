type t = {
  id : int;
  cap_bytes : int;
  mutable used_bytes : int;
  mutable records : int;
  latch : Resource.t;
}

let create ~id ~cap_bytes =
  if cap_bytes <= 0 then invalid_arg "Page.create: capacity must be positive";
  { id; cap_bytes; used_bytes = 0; records = 0; latch = Resource.create () }

let free_bytes t = max 0 (t.cap_bytes - t.used_bytes)
let overflowed t = t.used_bytes > t.cap_bytes

let add_bytes t n =
  if n < 0 then invalid_arg "Page.add_bytes: negative";
  t.used_bytes <- t.used_bytes + n

let remove_bytes t n =
  if n < 0 || n > t.used_bytes then invalid_arg "Page.remove_bytes: bad amount";
  t.used_bytes <- t.used_bytes - n
