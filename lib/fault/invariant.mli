(** Online invariant checking over a live vDriver instance.

    The safety and completeness oracles of the GC literature, asserted
    continuously while faults are injected: never reclaim a version
    some live transaction still needs, never corrupt the structures
    that make the remaining versions reachable.

    Catalogue (see DESIGN.md, "Fault model and invariant catalogue"):

    - {b prune soundness} — every discarded version is dead per
      Definition 3.3 against the live table {e at the moment of the
      discard} (installed as a continuous audit via
      {!install_prune_audit}; this is what catches a widened zone);
    - {b commit-log horizon} — no live transaction, nothing a live
      view still counts as in flight, and no registered floor lies
      below the commit log's freeze horizon ({!check_clog_horizon};
      judged at every horizon move through the same audit hook, and
      in every sweep);
    - {b chain shape} — every LLB chain is in the 0-hole or 1-hole
      state with consistent links and counts (§3.4, Figure 8);
    - {b chain/segment reachability} — every live chain node's segment
      exists and is [In_buffer] or [Hardened], never [Cut];
    - {b stats conservation} — [relocated = prune1 + prune2 + stored +
      lost + in_flight], with [in_flight] equal to the versions
      actually buffered;
    - {b store accounting} — [live_bytes] equals the sum over resident
      hardened segments, and the segment index holds exactly the open,
      sealed and hardened segments;
    - {b space quota} — when a governor quota is configured, the space
      reading at every post-maintenance checkpoint is within the hard
      quota (this is what catches [quota_ignore_sabotage]);
    - {b governor ladder} — every logged health transition is between
      adjacent rungs and respects the hysteresis thresholds;
    - {b post-crash emptiness} — after [crash_restart] the LLB, the
      vBuffer, the version store and its cache are all empty (§3.5,
      Figure 10b). *)

type violation = { invariant : string; detail : string }

val record : Fault_report.t -> at:Clock.time -> violation list -> unit
(** Record each violation in the report at [at]. *)

val check_chains : Driver.t -> violation list
(** Chain shape and chain/segment reachability, sorted by record id. *)

val check_stats : Driver.t -> violation list
val check_store : Driver.t -> violation list

val check_governor : Driver.t -> violation list
(** Overload-protection honesty, against the {e configured} quota (so a
    sabotaged governor that ignores its quota is still judged by it):
    the most recent post-maintenance space checkpoint must not exceed
    the hard quota, and the governor's transition log must be adjacent
    and hysteresis-respecting ({!Governor.check_ladder}). Empty when no
    quota is configured. *)

val check_watchdog : Driver.t -> violation list
(** Liveness-ladder honesty for the installed watchdog, if any:
    transitions adjacent, escalations only out of unhealthy polls,
    de-escalations only out of clean ones ({!Watchdog.check_ladder}).
    Empty when no watchdog is armed. *)

val check_gc : Driver.t -> violation list
(** The installed GC backend's own online invariant (DESIGN §4h):
    vCutter's cut-completeness-within-budget, the BBF+ resident
    dead-version bound. Prune {e soundness} stays universal — the
    continuous audit judges every backend's deletions — so this only
    carries the per-backend guarantee. Empty when no backend is
    installed. *)

val check_no_false_kill : Lease.t -> violation list
(** The watchdog never cancels a transaction that made progress within
    its lease: every recorded cancellation must show idle time strictly
    beyond the lease the victim held. *)

type lag_monitor
(** Stateful monitor for the bounded-reclamation-lag guarantee: tracks,
    per segment, the first time its descriptor interval was observed
    dead (Definition 3.3 against the live table), and judges resident
    segments against the configured bound. Deadness is monotone — live
    begin timestamps only ever disappear — so the first-observed clock
    is sound. *)

val lag_monitor : Driver.t -> bound:Clock.time -> lag_monitor
(** [bound] is the lag budget [L], typically {!Watchdog.lag_bound} of
    the armed watchdog's config. Raises [Invalid_argument] unless
    positive. *)

val check_lag : lag_monitor -> now:Clock.time -> violation list
(** One sweep: start clocks for newly dead segments, score reclaimed
    ones into the lag histogram, and report a [reclamation-lag]
    violation for every segment dead and resident past the bound. Call
    periodically (the bound budgets one check period of slack). *)

val finish_lag : lag_monitor -> now:Clock.time -> unit
(** End-of-run settlement: fold the final residence lag of every
    still-ticking clock into the histogram and max, then reset. *)

val max_lag : lag_monitor -> Clock.time
(** Largest dead-resident lag observed so far (reclaimed or not). *)

val lag_histogram : lag_monitor -> Histogram.t
(** Per-segment reclaim lags in microseconds (bucket width 50 µs). *)

val check_clog_horizon : Driver.t -> violation list
(** [clog-horizon]: the commit log's freeze horizon, judged against the
    live set from scratch. No live transaction, no transaction a live
    view still counts as in flight when it began (so none whose outcome
    timestamp is at or after the oldest live begin), not the next tid
    the oracle hands out, and no registered floor may lie below it
    ({!Txn_manager.freeze_horizon}). This is what catches
    [clog_over_truncate_sabotage]. *)

val check_all : Driver.t -> violation list
(** The steady-state checks above plus {!check_watchdog}, {!check_gc}
    and {!check_clog_horizon}, concatenated. *)

val check_post_crash : Driver.t -> violation list
(** To be run immediately after a crash-restart, before any new
    relocation reaches the driver. *)

val check_post_recovery : Driver.t -> violation list
(** To be run immediately after a durable restart-replay, before the
    workload resumes. Re-derives the expected post-recovery state from
    the WAL with CRC checking unconditionally on (never the engine's
    [recovery_skip_tail_check] sabotage knob) and compares: a log
    that discarded its prefix still holds the complete checkpoint at
    its {!Wal.crash_base} ([recovery-base]), committed
    effects durable (outcomes and the in-row image byte-exact), no
    loser or aborted transaction resurrected as committed, no committed
    timestamp at or above the log's frontier (a fabricated record), the
    surviving segment set rebuilt with identity/class/state/contents,
    dropped and cut segments still dead, the timestamp oracle and
    segment allocator at or past their logged frontiers, and the WAL
    counters conservative. Ends with the steady-state structure checks
    ({!check_chains}, {!check_stats}, {!check_store}). Empty for a
    non-durable engine. *)

val install_prune_audit :
  Driver.t -> on_violation:(now:Clock.time -> violation -> unit) -> unit
(** Arm the driver's prune audit hook: every version the instance
    discards (1st prune, 2nd prune, or cut) is re-checked against
    Definition 3.3 using the live table's current begin timestamps;
    unsound discards are reported through [on_violation] with the
    simulated time of the discard. Also arms the transaction manager's
    horizon audit: every move of the commit log's freeze horizon is
    judged by {!check_clog_horizon} on the spot. *)

val remove_prune_audit : Driver.t -> unit

val analyze_shard_logs :
  ?cursors:Wal_recovery.cursor array ->
  (int * Wal.t) list ->
  (int * Wal_recovery.analysis) list
(** Honest (CRC-on) analysis of every shard's log, sorted by shard id —
    the shared input of the log-level oracles below. Without [cursors]
    each log is analyzed from scratch, at a cost linear in the log.
    With them, shard [sid]'s log goes through
    [Wal_recovery.advance cursors.(sid)], which decodes only the frames
    appended since that cursor's last call. A periodic sweep that runs
    more than one of the oracles should analyze once and pass the
    result through [?analyses]. *)

val check_analysis_cursors :
  cursors:Wal_recovery.cursor array ->
  ?analyses:(int * Wal_recovery.analysis) list ->
  (int * Wal.t) list ->
  violation list
(** The incremental path against its reference: an
    ["analysis-cursor"] violation for every shard whose cursor
    analysis differs from the from-scratch one ([?analyses], when the
    caller has it already). *)

val check_cross_shard_atomicity :
  ?clog:Commit_log.t ->
  ?analyses:(int * Wal_recovery.analysis) list ->
  (int * Wal.t) list ->
  violation list
(** The sharded deployment's headline oracle, over the [(shard id, wal)]
    logs of every shard. Analyzes each log honestly (CRC on), builds the
    durable coordinator-decision table from every trustworthy prefix,
    resolves each shard's in-doubt transactions through it exactly as a
    recovering participant must, and reports:

    - {b cross-shard-atomicity} — a transaction committed on one shard
      but aborted / presumed-aborted on another, or committed with
      different commit timestamps on two shards;
    - {b 2pc-decision-missing} — a participant applied a local commit
      for a prepared transaction with no durable decision at its
      coordinator (what [skip_coord_decision] sabotage produces — holds
      at every instant of the honest protocol, so it needs no lucky
      crash timing);
    - {b recovery-phantom} — with [?clog] (immediately after a group
      restart), a committed timestamp at or above every shard's durable
      frontier. *)

val check_no_committed_loss :
  ?analyses:(int * Wal_recovery.analysis) list ->
  acked:(int * int * int list) list ->
  (int * Wal.t) list ->
  violation list
(** The replicated deployment's headline oracle: every commit
    acknowledged to a client must survive every node-kill/failover
    schedule. [acked] is the client-visible ledger — [(tid, cts,
    participant shards)] for each acknowledged commit, the union of
    {!Shard_group.acked} and any sabotage-fabricated
    {!Replica.stale_acked} entries — and the [(shard id, wal)] list
    holds each shard's authoritative (post-failover) device. Each log
    is analyzed honestly with in-doubt entries resolved against the
    durable decision table, exactly as {!check_cross_shard_atomicity}
    does; a ["no-committed-loss"] violation is reported for every
    acknowledged [(tid, shard)] the surviving logs fail to commit.

    Fuzzy checkpoints keep only a bounded commit-log window, so the
    oracle demands an entry only while its commit timestamp sits at or
    above the participant log's last snapshot frontier
    ([Checkpoint.oracle_next]) — below it, the outcome has legitimately
    aged into the snapshot image. A loss is therefore visible from the
    kill that caused it until a later checkpoint's frontier passes it,
    which spans several online sweeps; the periodic
    [ack-before-replicate] and [stale-primary-writes] campaigns must
    provably trip this check. *)
