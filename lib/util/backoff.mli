(** Bounded exponential backoff with deterministic jitter.

    The retry policy the runner applies to governor-aborted (shed) and
    fault-aborted transactions: delay doubles per consecutive failure up
    to a cap, a seeded jitter term decorrelates retriers, and after
    [max_attempts] failures the caller is told to give up. Every delay
    is a pure function of the generator's seed and the attempt sequence,
    so retry schedules replay bit-for-bit. *)

type t

val create : ?base_ns:int -> ?cap_ns:int -> ?max_attempts:int -> Rng.t -> t
(** [base_ns] first-retry delay (default 100 us), [cap_ns] ceiling on
    the exponential term (default 10 ms), [max_attempts] consecutive
    failures tolerated before giving up (default 8). The jitter is
    uniform and additive, up to a quarter of the chosen delay. Raises
    [Invalid_argument] on non-positive [base_ns], [cap_ns] or
    [max_attempts]. *)

val next : t -> int option
(** Record one more consecutive failure and return the delay (ns) to
    wait before the retry, or [None] when the attempt budget is
    exhausted — the caller should count a give-up and {!reset}. *)

val reset : t -> unit
(** Back to zero consecutive failures (call after a success or a
    give-up). Does not rewind the jitter stream. *)

(** {1 Per-channel stream forking}

    Every retrying subsystem historically drew jitter from one
    generator it was handed; two subsystems sharing a seed would then
    perturb each other's streams through interleaving. A {e channel}
    names an independent stream: the generator is a pure function of
    [(seed, channel)], so net-layer retries on ["net:0->3"] can never
    shift the governor's or runner's retry schedules, and each
    channel's delay sequence replays bit-for-bit in isolation. *)

val channel_rng : seed:int -> channel:string -> Rng.t
(** The forked generator itself (FNV-1a of [channel] folded into
    [seed]), for callers that draw more than backoff jitter from the
    channel's stream. *)

val channel :
  ?base_ns:int ->
  ?cap_ns:int ->
  ?max_attempts:int ->
  seed:int ->
  channel:string ->
  unit ->
  t
(** A backoff policy over the channel's forked stream; parameters as
    {!create}. *)
