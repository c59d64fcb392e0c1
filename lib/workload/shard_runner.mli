(** Campaign driver for sharded deployments.

    Sim mode is the seed discrete-event scheduler over a
    {!Shard_group}: OLTP workers routed by a {!Shard_router} (a drawn
    fraction of writing transactions forced cross-shard, i.e. through
    2PC), an LLT fleet pinning global snapshots, per-shard background
    maintenance and fuzzy checkpoints, a global epoch broadcaster, and
    the full fault surface — power loss at scheduled global log
    positions, {b crash-at-every-2PC-step} via the group's step hook,
    and torn tails on a rotating shard. After every restart the
    per-shard post-recovery catalogue and the cross-shard atomicity
    oracle both run; the static 2PC checks also run in the periodic
    sweep and at the end of every run, so a skipped coordinator
    decision is caught even without a crash. Whole runs are
    deterministic: same config, same bytes — the plan is immutable, so
    one config can drive any number of runs.

    Domains mode runs the same process set — prune audits, periodic
    invariant sweep and failover fault notes included — on real OCaml 5
    domains over the {!Exec} bounded-skew substrate, each process step
    holding one engine mutex: the same simulated costs as Sim,
    interleaved for real, statistically reproducible, compared across
    modes with {!digest_diff}. Crash faults are Sim-only
    ({!Substrate.table}) and rejected ([Invalid_argument]).

    Both modes can attach a {!Net_fault} config: the 2PC and epoch
    choreography then rides the seeded lossy fabric, a periodic
    resolver task pumps it (resends, in-doubt termination), post-run
    the fabric is quiesced and the network invariants
    (in-doubt-liveness, reclamation-lag-after-heal) recorded, and the
    digest grows a net block. With [Net_fault.none] and no sabotage the
    fabric is provably transparent — reports and digests are
    byte-identical to the pre-fabric driver. *)

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
    does not support. The periodic invariant sweep reads the logs
    through one {!Wal_recovery.cursor} per shard; every crash point
    (before the crash) and the end of the run compare those cursors
    with the from-scratch analysis (["analysis-cursor"]). With
    [replicas > 0] the failover scheduler runs in both modes: node
    kills and revives from the plan and [kill_steps], lease-based
    promotions with engine restart and in-doubt recovery on the
    promoted timeline, and the replication invariants
    ([no-committed-loss], [no-split-brain], [bounded-failover-lag])
    recorded continuously and at the end of the run. *)
