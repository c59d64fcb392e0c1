type t = {
  base_ns : int;
  cap_ns : int;
  max_attempts : int;
  rng : Rng.t;
  mutable attempts : int;
}

(* Uniform additive jitter, as a fraction of the chosen delay. *)
let jitter_frac = 0.25

let create ?(base_ns = 100_000) ?(cap_ns = 10_000_000) ?(max_attempts = 8) rng =
  if base_ns <= 0 then invalid_arg "Backoff.create: base_ns must be positive";
  if cap_ns <= 0 then invalid_arg "Backoff.create: cap_ns must be positive";
  if max_attempts <= 0 then invalid_arg "Backoff.create: max_attempts must be positive";
  { base_ns; cap_ns; max_attempts; rng; attempts = 0 }

let next t =
  if t.attempts >= t.max_attempts then None
  else begin
    t.attempts <- t.attempts + 1;
    (* base * 2^(attempt-1), saturating at the cap: shifting by the
       attempt index overflows for large budgets, so clamp first. *)
    let exp =
      if t.attempts - 1 >= 30 then t.cap_ns
      else min t.cap_ns (t.base_ns lsl (t.attempts - 1))
    in
    let jitter_bound = int_of_float (float_of_int exp *. jitter_frac) in
    let jitter = if jitter_bound <= 0 then 0 else Rng.int t.rng (jitter_bound + 1) in
    Some (exp + jitter)
  end

let reset t = t.attempts <- 0

(* Per-channel stream forking: an FNV-1a fold of the channel name mixed
   into the seed. Each channel owns an independent splitmix state, so a
   retry storm on one channel (say, a partitioned net link) never
   advances the jitter stream of another (say, the runner's shed-retry
   policy) — both replay bit-for-bit from (seed, channel) alone. *)
let channel_rng ~seed ~channel =
  let h = ref 0x2545f4914f6cdd1d in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) channel;
  Rng.create (seed lxor !h)

let channel ?base_ns ?cap_ns ?max_attempts ~seed ~channel:name () =
  create ?base_ns ?cap_ns ?max_attempts (channel_rng ~seed ~channel:name)
