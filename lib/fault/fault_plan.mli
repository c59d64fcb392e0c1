(** Seeded fault plans.

    A plan is a deterministic schedule of injected failures: explicit
    [events] pinned to simulated times, plus independent Poisson
    processes (one per fault kind, rates in expected injections per
    simulated second) whose arrival times are pre-drawn from the plan's
    own splitmix stream. Equal seeds and rates give equal injection
    sequences regardless of what the system under test does, and a plan
    never touches the workload's RNG — a run with a zero-rate plan is
    bit-identical to a run with no plan at all.

    The scheduler consults the plan through its dispatch probe: before
    every process step the harness calls {!poll}, which returns the
    faults that have come due since the previous poll. *)

type action =
  | Crash  (** crash-restart the engine (§3.5, Figure 10b) *)
  | Abort_txn  (** abort one in-flight transaction (Figure 10a) *)
  | Wal_error  (** reject a burst of WAL appends *)
  | Flush_fail  (** fail segment flushes for a sweep window *)
  | Evict_storm  (** evict the whole version-store cache *)
  | Space_storm
      (** a burst writer displaces a volley of versions at once — the
          quota squeeze that drives the governor's ladder *)
  | Wal_bitflip
      (** flip bits inside one surviving WAL frame — silent log
          corruption the next recovery's CRC pass must refuse *)
  | Cleaner_stall
      (** the cleaning side (vSorter/vCutter maintenance loop) stops
          making progress for a drawn duration — the hung-GC hazard the
          liveness watchdog exists to bound *)
  | Llt_zombie
      (** one in-flight LLT stops issuing operations but keeps its
          snapshot pinned — the zombie the lease-based shed rung must
          contain *)
  | Collab_delay
      (** the cutter dawdles between installing its footprint and
          marking completion, stretching the sorter's spin-wait window
          in the collaboration protocol *)
  | Node_kill
      (** kill one whole replica node (the runner draws the victim):
          dead silence, lease expiry, deterministic failover *)
  | Node_revive
      (** bring the oldest dead node back — honestly state-transferred,
          or stale under the stale-primary sabotage *)

val action_name : action -> string

type event = { at : Clock.time; action : action }

type t

val create :
  ?seed:int ->
  ?events:event list ->
  ?crash_rate:float ->
  ?abort_rate:float ->
  ?wal_error_rate:float ->
  ?flush_fail_rate:float ->
  ?evict_storm_rate:float ->
  ?space_storm_rate:float ->
  ?wal_bitflip_rate:float ->
  ?cleaner_stall_rate:float ->
  ?llt_zombie_rate:float ->
  ?collab_delay_rate:float ->
  ?node_kill_rate:float ->
  ?node_revive_rate:float ->
  ?crash_points:int list ->
  ?torn_tail:bool ->
  ?check_period:Clock.time ->
  unit ->
  t
(** Rates are per simulated second and default to 0; [events] may be in
    any order. [check_period] is the cadence at which the harness runs
    the online invariant sweep (default 100 ms; the prune-soundness
    audit is continuous regardless). Negative rates raise
    [Invalid_argument].

    [crash_points] schedules deterministic crash-restarts by WAL
    position: the runner kills power the first time the log's highest
    LSN reaches each point (requires a durable engine; ignored
    otherwise). [torn_tail] additionally appends a fabricated,
    checksum-stale commit frame at each of those crashes — the
    torn-sector model honest recovery must truncate. *)

val none : t
(** The no-op plan: no events, all rates zero. Wiring it through a run
    must not change the run's results — the determinism tests hold us to
    that. *)

val random :
  ?crash_points:int list ->
  ?torn_tail:bool ->
  ?stalls:bool ->
  ?zombies:bool ->
  ?crashes:bool ->
  seed:int ->
  unit ->
  t
(** A moderately aggressive plan derived entirely from [seed]: every
    rate is drawn from a seeded stream. Chaos campaigns use one per
    campaign. The optional crash-point schedule rides along without
    perturbing the rate draws. [stalls] additionally draws cleaner-stall
    and collab-delay rates, [zombies] an LLT-zombie rate; both are drawn
    strictly after the classic rates, so enabling them never perturbs
    the classic injection times for the same seed. [crashes:false]
    (default [true]) zeroes the crash process and drops the crash-point
    schedule {e after} the rate draws, leaving every other process's
    injection times untouched — the crash-free plan variant the
    sim-vs-domains differential harness runs both modes under. *)

val random_net :
  ?loss:float ->
  ?dup:float ->
  ?delay_us:int ->
  ?partitions:int ->
  shards:int ->
  horizon:Clock.time ->
  seed:int ->
  unit ->
  Net_fault.config
(** A seeded {!Net_fault.config} for a [shards]-endpoint fabric:
    [partitions] named windows, each isolating a drawn nonempty strict
    subset of shards, opening inside the first ~70% of [horizon] and
    healing strictly before it. Rates and the delay bound pass through
    ([loss] 10%, [dup] 5%, [delay_us] 150 by default). The partition
    draws come from a stream forked off [seed] with a tweak distinct
    from {!random}'s, so pairing both from one seed keeps either's
    draws stable. Raises [Invalid_argument] for [shards < 2], a
    non-positive horizon, or a negative partition count. *)

val random_nodes : seed:int -> unit -> t
(** A seeded whole-node fault plan for replicated-shard campaigns:
    kill and revive arrival rates drawn from a stream forked off
    [seed] with its own tweak (independent of {!random} and
    {!random_net} at the same seed). Revives are drawn a bit more
    frequent than kills, so the one-dead-node-per-group budget keeps
    freeing up over a long soak. *)

val seed : t -> int
val check_period : t -> Clock.time

val crash_points : t -> int list
(** Ascending, duplicates removed. *)

val torn_tail : t -> bool

val poll : t -> now:Clock.time -> action list
(** All injections due at or before [now] that were not already
    returned, oldest first (scheduled events before Poisson arrivals on
    ties, then by declaration order of the action kinds). *)

val pp : Format.formatter -> t -> unit
(** Seed and rates — enough to reproduce the plan. *)
