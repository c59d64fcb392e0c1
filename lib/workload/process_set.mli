(** The campaign body {!Runner} and {!Shard_runner} share: one process
    set — OLTP workers, LLT drivers, background GC, the fuzzy
    checkpointer, the metrics sampler, the periodic invariant sweep and
    the fault harness (crash-point probe, crash/restart composition,
    engine-failure capture) — over one of two topologies:

    - a single {!Engine.t} ({!single}): any of the four engines, with
      the governor's shed hook and GC pacing, the watchdog and leases,
      and the plan's in-engine faults;
    - a {!Shard_group} ({!sharded}): one router per workload phase, the
      epoch broadcaster, the net resolver, the failover scheduler, the
      per-shard log sweep and the 2PC crash steps.

    Processes register in one order: workers, LLT drivers, GC, then a
    group's epoch, net, failover and (replicated) sweep processes, then
    the checkpointer, the sampler, the sweep, the dispatch probe and
    the watchdog. Either runs on either {!Substrate}. Whole-node plan
    arrivals ([Node_kill], [Node_revive]) need a group and every other
    kind a single engine; a plan injecting a kind its topology does not
    implement is refused ([Invalid_argument]). *)

type shard_cfg = {
  base : Exp_config.t;
  shards : int;
  scenario : Shard_router.scenario;
  cross_pct : int;
  faults : Fault_plan.t;
  crash_steps : int list;
  net : Net_fault.config;
  replicas : int;
  rep_quorum : int option;
  kill_steps : int list;
  sabotage : Sabotage.t option;
}
(** {!Shard_runner.cfg}, documented there. *)

val default : shards:int -> Exp_config.t -> shard_cfg
val rep_lag_bound : Clock.time

val net_active : shard_cfg -> bool
(** A fault model or a net sabotage makes the fabric non-transparent. *)

val peak_of : (float * float) list -> int
(** The largest value of a series, 0 when empty. *)

(** What a campaign observed, for the wrapper's digest and result. *)
type stats = {
  report : Fault_report.t;
  commit_rate : Series.Rate.rate;  (** worker commits per 1 s bucket *)
  latency_us : Histogram.t;
      (** committed-transaction latency (10 us buckets); single engine only *)
  conflicts : int;
  llt_reads : int;
  retries : int;
  give_ups : int;
  crashes : int;
  recoveries : Engine.restart_info list;  (** oldest first *)
  space : Series.t;  (** sampled version bytes *)
  redo : Series.t;
  chain : Series.t;
  splits : Series.t;
  final : Engine.sample;  (** after the run settled *)
  lag : Invariant.lag_monitor option;  (** armed by the watchdog or the plan *)
}

val single :
  engine:(Schema.t -> Engine.t) ->
  faults:Fault_plan.t option ->
  watchdog:Watchdog.config option ->
  mode:Substrate.mode ->
  Exp_config.t ->
  Engine.t * Watchdog.t option * stats
(** {!Runner.run}'s campaign; see there. *)

val sharded : mode:Substrate.mode -> shard_cfg -> Shard_group.t * Replica.t option * stats
(** {!Shard_runner.run}'s campaign; see there. *)
