(** Discrete-event experiment runner.

    Builds an engine, spawns worker processes (the OLTP mix), LLT driver
    processes, a background GC process and a metrics sampler, then runs
    the simulation and collects the series the paper's figures plot.

    Fidelity note (documented in DESIGN.md): each worker computes one
    whole short transaction per scheduling step, so a short
    transaction's read view may reflect commits that complete within the
    same step window. The error is bounded by one transaction duration
    (tens of microseconds); LLTs — the phenomenon under study — live for
    many seconds across thousands of steps and are modeled exactly. *)

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
(** [run ~engine ?faults ?watchdog cfg] builds the engine and drives the
    discrete-event simulation. [?mode] (default [Sim]) selects the
    execution substrate; one campaign body serves both, and the Sim
    substrate adds nothing per step, so default-mode runs stay
    bit-identical to the seed. With [?faults], the scheduler's dispatch
    probe consults the plan before every process step; due injections
    (crashes, forced aborts, WAL errors, flush failures, cache eviction
    storms, space storms) are applied to the engine, a continuous
    prune-soundness audit is armed on the vDriver instance, and a
    periodic process sweeps the full invariant catalogue
    ({!Invariant.check_all}), collecting everything into
    [result.faults]. A plan that injects nothing leaves the run
    bit-identical to a run without one. Whole-node faults
    ([Node_kill], [Node_revive]) belong to replicated shards
    ({!Shard_runner}); a plan that injects them raises
    [Invalid_argument].

    On a durable engine (one exposing [checkpoint]/[restart]) the
    runner additionally spawns a fuzzy checkpointer at
    [cfg.ckpt_period_s], and the plan's crash points and Poisson
    [Crash] arrivals become full power-loss/restart-replay cycles:
    unfsynced (or post-crash-point) frames are discarded, an optional
    torn tail is fabricated, in-flight transactions are dropped as
    losers (never aborted through the engine), the engine's restart
    replays the surviving log, and {!Invariant.check_post_recovery} is
    asserted before the workload resumes.

    When the engine has a vDriver, the runner installs the governor's
    shed hook (so snapshot-too-old victims are rolled back through the
    engine), paces background maintenance by {!Governor.gc_scale}, and
    re-executes externally-aborted workers and LLT drivers under a
    seeded bounded-exponential backoff (200 us base, 20 ms cap, 6
    attempts, deterministic jitter).

    With [?watchdog], the liveness subsystem is armed: every cleaning
    loop posts progress beats into a {!Watchdog.t} (also installed on
    the vDriver state so vSorter/vCutter/maintenance beat from inside
    the pipeline), every transaction is granted a {!Lease} scaled to
    the experiment, a watchdog process polls the escalation ladder at
    the configured check period, and an {!Invariant.lag_monitor}
    asserts the bounded-reclamation-lag guarantee
    ({!Watchdog.lag_bound}) online, recording violations into
    [result.faults]. Stall/zombie injections ([Cleaner_stall],
    [Collab_delay], [Llt_zombie] in the fault plan) only bite in armed
    runs. Passing a config with [enabled = false] keeps the whole
    observation side (beats, leases, lag monitor — and therefore the
    reclamation-lag violations) while the ladder never acts: the
    [no-watchdog] {!Sabotage} row. Without [?watchdog] nothing above
    exists and the run is bit-identical to the seed. *)

val avg_throughput : result -> between:float * float -> float
(** Mean commits/s over a closed time window. *)

val final_space : result -> int
val peak_space : result -> int
val peak_chain : result -> int
