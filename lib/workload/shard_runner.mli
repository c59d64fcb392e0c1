(** Campaign driver for sharded deployments: the shard-group topology
    of the shared campaign body ({!Process_set}). OLTP workers are
    routed by a {!Shard_router} per workload phase, a drawn fraction of
    writing transactions forced cross-shard (through 2PC); an LLT fleet
    pins global snapshots; maintenance and fuzzy checkpoints run per
    shard and a global epoch broadcaster paces pruning. The fault
    surface is power loss at global log positions, crash at exact 2PC
    steps, torn tails on a rotating shard and, replicated, whole-node
    kills. After every restart the per-shard post-recovery catalogue and
    the cross-shard atomicity oracle run; the static 2PC checks also run
    in the periodic sweep and at the end, so a skipped coordinator
    decision is caught without a crash. Sim runs are deterministic;
    Domains runs are statistically reproducible, compared with
    {!digest_diff}, and reject crash faults.

    A {!Net_fault} config puts the 2PC and epoch traffic on the seeded
    lossy fabric: a resolver process pumps it, the fabric is quiesced
    after the run, the network invariants are recorded and the digest
    grows a net block. [Net_fault.none] without sabotage is transparent:
    reports and digests are byte-identical to a driver without it. *)

type mode = Substrate.mode = Sim | Domains of { domains : int }

type cfg = {
  base : Exp_config.t;  (** workload shape: workers, mix, LLTs, periods *)
  shards : int;
  scenario : Shard_router.scenario;
  cross_pct : int;  (** % of writing transactions forced to span two shards *)
  faults : Fault_plan.t;
      (** read the way {!Runner.run} reads its plan: power loss when the
          summed LSN reaches each of its crash points, a torn tail on a
          rotating shard at each crash when it says so, the invariant
          sweep at its check period, and its [Node_kill]/[Node_revive]
          arrivals polled by the failover scheduler through a cursor of
          this run's own (victims drawn from the runner's stream). A
          plan that injects any other kind raises [Invalid_argument]. *)
  crash_steps : int list;  (** crash at these global 2PC step indices, ascending *)
  net : Net_fault.config;  (** message-fault model; {!Net_fault.none} = transparent *)
  replicas : int;  (** backups per shard; 0 = replication layer absent *)
  rep_quorum : int option;  (** sync-replication quorum; [None] = majority *)
  kill_steps : int list;
      (** kill a node of the step's shard when the global replication
          step counter reaches each index, ascending — R_ship/R_quorum
          steps kill the shard's primary, R_ack steps the acking backup *)
  sabotage : Sabotage.t option;
      (** a sharded {!Sabotage} row (skipped coordinator decision,
          network or failover defect); unsharded rows are ignored *)
}

val default : shards:int -> Exp_config.t -> cfg
(** Uniform routing, 30% cross-shard, a plan with 50 ms sweeps and no faults,
    transparent fabric, no replication. Epochs broadcast every 5 ms and
    the resolver ticks every 1 ms; replicated groups use 50 ms leases,
    2 ms failover sweeps and revive dead nodes after 80 ms, past the
    lease, so every kill runs a full failover. *)

val rep_lag_bound : Clock.time
(** The bounded-failover-lag budget, 250 ms: every completed promotion
    must land within it. *)

type net_digest = {
  nd_sent : int;
  nd_dropped : int;  (** loss + partition drops *)
  nd_retried : int;
  nd_net_aborts : int;  (** cross-shard fail-fasts *)
  nd_indoubt_max_us : int;  (** longest in-doubt residence *)
}

type rep_digest = {
  rd_replicas : int;
  rd_quorum : int;
  rd_kills : int;
  rd_revives : int;
  rd_promotions : int;  (** summed over shards *)
  rd_fencings : int;  (** stale-epoch frames refused, summed *)
  rd_stale_acks : int;  (** sabotage-fabricated client acks *)
  rd_restarts : int;  (** engine restarts: crash recoveries + promotions *)
  rd_lag_max_us : int;  (** worst completed failover lag *)
}

type digest = {
  d_mode : string;
  d_shards : int;
  d_commits : int;
  d_conflicts : int;
  d_cross_commits : int;
  d_violations : int;
  d_peak_space : int;
  d_throughput : float;
  d_net : net_digest option;
      (** present iff a fault config or net sabotage was active — the
          JSON of a transparent run stays byte-identical to the
          pre-fabric driver *)
  d_repl : rep_digest option;
      (** present iff [replicas > 0] — unreplicated digests keep the
          exact bytes of the pre-replication driver *)
}

val rows : digest -> Run_digest.t
(** The digest as a counter table under its JSON names ([net.sent],
    [repl.kills], ...). The run's report carries these rows plus
    report-only ones: [single_commits], [two_pc_steps], [epochs], the
    [recovery] block, [net.duplicated], [net.indoubt_mean_us] and the
    per-shard [net.indoubt_s<i>], [net.epoch_lag_s<i>],
    [repl.promotions_s<i>] and [repl.fencings_s<i>]. *)

val digest_to_json : digest -> Jsonx.t
(** {!Run_digest.to_json} of {!rows}. *)

val digest_diff : digest -> digest -> string list
(** {!Run_digest.diff} of {!rows}; empty when the digests agree:
    shard counts equal, violations exactly zero in both, commits within
    (rel 0.5, abs 400) — Domains interleaves for real — peak space
    within (1.0, 64 KiB), cross-shard traffic present in both or
    neither, net and repl blocks present in both or neither, net send
    volume within (4.0, 4096), replica count and quorum equal, kills
    and promotions within (1.0, 8), and fabricated stale acks present
    in both or neither. *)

type result = {
  commits : int;
  conflicts : int;
  cross_commits : int;
  single_commits : int;
  two_pc_steps : int;
  llt_reads : int;
  crashes : int;
  recoveries : Engine.restart_info list;
  report : Fault_report.t;  (** faults injected, checks run, violations *)
  peak_space : int;
  final_space : int;
  epochs : int;
  throughput : float;  (** commits/s over the whole run *)
  net_aborts : int;  (** cross-shard transactions failed fast as unreachable *)
  indoubt_max_us : int;  (** longest prepared→resolved residence (µs) *)
  indoubt_mean_us : float;
  failover_lags_us : int list;
      (** completed failovers (kill → promotion), oldest first, µs *)
  digest : digest;
}

val run : ?mode:mode -> cfg -> result
(** Raises [Invalid_argument] for a bad shard or replica count, for
    crash faults combined with replication (power loss truncates the
    device out from under the contiguous mirror protocol), for node
    faults, a quorum or failover sabotage without [replicas > 0], for
    the [Stale_cursor] sabotage without crash points or crash steps,
    for a quorum out of range ({!Replica.create}), and for what [mode]
    does not support. The periodic invariant sweep keeps the log
    oracles through one {!Wal_recovery.cursor} per shard
    ({!Invariant.sweep}); every crash point (before the crash) and the
    end of the run compare those cursors, and the sweep's verdicts,
    with the from-scratch ones (["analysis-cursor"]). With
    [replicas > 0] the failover scheduler runs in both modes: node
    kills and revives from the plan and [kill_steps], lease-based
    promotions with engine restart and in-doubt recovery on the
    promoted timeline, and the replication invariants
    ([no-committed-loss], [no-split-brain], [bounded-failover-lag])
    recorded continuously and at the end of the run. *)
