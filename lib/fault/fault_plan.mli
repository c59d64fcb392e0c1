(** Seeded fault plans.

    A plan is an immutable, deterministic description of injected
    failures: explicit [events] pinned to simulated times, independent
    Poisson processes (one per fault kind, rates in expected injections
    per simulated second, each with its own splitmix stream derived from
    the plan seed), the crash-point schedule, torn tails and the
    invariant-sweep cadence. Both {!Runner.run} and {!Shard_runner.run}
    take their faults as one plan. Equal seeds and rates give equal
    injection sequences regardless of what the system under test does,
    and a plan never touches the workload's RNG — a run with a
    zero-rate plan is bit-identical to a run with no plan at all.

    A run replays the plan through a {!cursor} of its own, so one plan
    can drive any number of runs (a Sim/Domains pair, say) and each sees
    the same schedule. The harness polls its cursor — before every
    process step on Sim, from a failover beat on replicated shards —
    and gets the faults that have come due since the previous poll. *)

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
  ?space_storm_rate:float ->
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
(** Rates are per simulated second and default to 0; the WAL-error,
    flush-fail, eviction-storm and WAL-bit-flip kinds get no rate here
    ({!random} draws the first three; [events] may name any kind).
    [events] may be in any order. [check_period] is the cadence at which the harness runs
    the online invariant sweep (default 100 ms; the prune-soundness
    audit is continuous regardless). Negative rates and a non-positive
    [check_period] raise [Invalid_argument].

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
  seed:int ->
  unit ->
  t
(** A moderately aggressive plan derived entirely from [seed]: every
    rate is drawn from a seeded stream. Chaos campaigns use one per
    campaign. The optional crash-point schedule rides along without
    perturbing the rate draws. [stalls] additionally draws cleaner-stall
    and collab-delay rates, [zombies] an LLT-zombie rate; both are drawn
    strictly after the classic rates, so enabling them never perturbs
    the classic injection times for the same seed. *)

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
    freeing up over a long soak. Sweeps every 50 ms, the sharded
    runner's default. *)

val without_crashes : t -> t
(** The plan minus its crash faults: no [Crash] events or arrivals, no
    crash points, no torn tails. Every other process keeps its stream,
    so its injection times are unchanged — the crash-free variant a
    Sim/Domains pair runs on both substrates. A plan without crash
    faults is returned as is. *)

val seed : t -> int
val check_period : t -> Clock.time

val crash_points : t -> int list
(** Ascending, duplicates removed. *)

val torn_tail : t -> bool

val rate : t -> action -> float
(** The arrival rate declared for an action kind. Every kind is
    declared; 0 (the {!create} default) means no arrivals. *)

val actions : t -> action list
(** The kinds this plan injects — a positive rate or at least one
    event — in declaration order. A runner rejects a plan whose kinds it
    does not implement. *)

type cursor
(** One run's position in the plan: the events not yet returned and
    each process's next arrival. *)

val cursor : t -> cursor
(** A fresh replay from time 0. *)

val poll : cursor -> now:Clock.time -> action list
(** All injections due at or before [now] that this cursor has not
    already returned, oldest first (scheduled events before Poisson
    arrivals on ties, then by declaration order of the action kinds). *)

val pp : Format.formatter -> t -> unit
(** Seed and rates — enough to reproduce the plan. *)
