(** Experiment runner over one engine: the single-engine topology of
    the shared campaign body ({!Process_set}). Builds the engine, runs
    the OLTP workers, LLT drivers, background GC, checkpointer and
    metrics sampler (plus the fault harness and watchdog when asked),
    and collects the series the paper's figures plot.

    Fidelity note (DESIGN.md): each worker computes one whole short
    transaction per scheduling step, so a short transaction's read view
    may reflect commits completing within the same step window — an
    error bounded by one transaction (tens of microseconds). LLTs, the
    phenomenon under study, live across thousands of steps and are
    modeled exactly. *)

type result = {
  engine_name : string;
  throughput : (float * float) list;  (** (second, commits/s) *)
  version_space : (float * float) list;  (** (second, bytes) *)
  redo : (float * float) list;  (** (second, cumulative redo bytes) *)
  max_chain : (float * float) list;  (** (second, longest valid chain) *)
  splits : (float * float) list;  (** (second, cumulative page splits) *)
  chain_cdf : (int * float) list;  (** final chain-length CDF (Fig 14) *)
  latency_us : Histogram.t;  (** committed-transaction latency (10 us buckets) *)
  commits : int;
  conflicts : int;
  llt_reads : int;
  truncations : int;
  latch_wait : Clock.time;  (** cumulative latch queueing time *)
  cut_delays : (Vclass.t * Clock.time) list;  (** vDriver engines only *)
  driver : Driver.t option;
  faults : Fault_report.t;
      (** injected faults, invariant sweeps, and any violations; empty
          when the run had no fault plan. Always carries every row of
          [digest] as a counter. *)
  wal_errors : int;  (** log appends rejected by fault injection *)
  retries : int;
      (** backed-off re-executions after forced aborts and governor
          sheds (both OLTP workers and LLT drivers) *)
  give_ups : int;  (** transactions abandoned after the retry budget *)
  sheds : int;
      (** victims evicted by the governor's snapshot-too-old policy *)
  crashes : int;
      (** durable crash-restarts taken (crash points + Poisson crashes
          on a durable engine) *)
  recoveries : Engine.restart_info list;
      (** one per crash-restart, in order — replay/truncation/rollback
          counts and the simulated recovery duration *)
  zombie_cancels : int;
      (** transactions cancelled by the watchdog's shed rung: past their
          lease, no progress, and pinning otherwise-dead versions *)
  watchdog_escalations : int;
      (** upward moves of the liveness ladder; 0 when not armed *)
  max_reclamation_lag : Clock.time;
      (** largest dead-to-reclaimed (or dead-and-still-resident) lag the
          monitor observed; 0 when not armed *)
  reclamation_lag_us : Histogram.t;
      (** per-segment reclaim lag in microseconds (50 us buckets); empty
          when not armed *)
  digest : Run_digest.t;
      (** the end-of-run counter table: the Sim-vs-Domains digest rows,
          the reclamation-lag rows when the monitor was armed, and the
          [recovery], [watchdog] and GC-backend ([gc]) blocks when those
          layers ran *)
}

type mode = Substrate.mode =
  | Sim  (** deterministic discrete-event simulation (the seed behavior) *)
  | Domains of { domains : int }
      (** real OCaml 5 parallelism: the same process set — workers, LLT
          drivers, GC, checkpointer, sampler, invariant sweep — runs on
          [domains] [Domain.t]s, virtual clocks coupled by the {!Exec}
          bounded-skew window, every process step holding one engine
          mutex (DESIGN §4f). The fault plan is polled by a 250 us tick
          task instead of the dispatch probe. What differs from [Sim]
          is the {!Substrate.table}: watchdog configs, crash points and
          torn tails, and an active trace or metrics scope are rejected
          ([Invalid_argument]); Poisson [Crash] arrivals are recorded as
          [crash-skipped] and not applied; with a fault plan the
          bounded-reclamation-lag monitor is armed directly. Results are
          statistically (not bit-) reproducible; compare the two
          [digest]s with {!Run_digest.diff}. *)

val run :
  engine:(Schema.t -> Engine.t) ->
  ?faults:Fault_plan.t ->
  ?watchdog:Watchdog.config ->
  ?mode:mode ->
  Exp_config.t ->
  result
(** [run ~engine ?faults ?watchdog cfg] builds the engine and drives
    the campaign on [?mode] (default [Sim]). Without [?faults] and
    [?watchdog] the run is the plain experiment, bit-identical to the
    seed; a plan that injects nothing leaves it bit-identical too.

    With [?faults], the plan is polled before every process step and
    its arrivals applied to the engine — forced aborts, WAL errors,
    flush failures, cache eviction storms, space storms, Poisson
    crashes, cleaner stalls, collab delays, zombie LLTs; whole-node
    faults raise [Invalid_argument] (they need {!Shard_runner}). A
    prune-soundness audit is armed on the vDriver and a periodic
    process sweeps {!Invariant.check_all}; everything lands in
    [result.faults]. On a durable engine (one exposing
    [checkpoint]/[restart]) a fuzzy checkpointer runs at
    [cfg.ckpt_period_s], and crash points and Poisson crashes become
    power losses: unfsynced (or post-crash-point) frames are lost, an
    optional torn tail is fabricated, in-flight transactions are
    dropped as losers, the restart replays the log and
    {!Invariant.check_post_recovery} is asserted.

    On a vDriver engine the governor's shed hook rolls snapshot-too-old
    victims back through the engine, GC is paced by
    {!Governor.gc_scale}, and externally-aborted workers and LLT drivers
    re-execute under a seeded backoff (200 us base, 20 ms cap, 6
    attempts).

    With [?watchdog] the liveness subsystem is armed: cleaning loops
    post beats into a {!Watchdog.t} (also installed on the vDriver),
    every transaction holds a {!Lease} scaled to the experiment, a
    process polls the escalation ladder, and an
    {!Invariant.lag_monitor} asserts {!Watchdog.lag_bound} online.
    Stall and zombie injections only bite in armed runs. A config with
    [enabled = false] keeps beats, leases and the lag monitor while the
    ladder never acts: the [no-watchdog] {!Sabotage} row. *)

val avg_throughput : result -> between:float * float -> float
(** Mean commits/s over a closed time window. *)

val final_space : result -> int
val peak_space : result -> int
val peak_chain : result -> int
