(** N independent vDriver pipelines over one global snapshot order.

    The keyspace is sharded by record id — global rid [r] lives on
    shard [r mod n] at local rid [r / n] — and each shard runs the full
    per-shard pipeline behind {!Shard}. Three things stay global:

    - the {b snapshot order}: one shared {!Txn_manager}, so any
      transaction reads a consistent snapshot across every shard;
    - the {b dead zones}: a coordinator-side {!Epoch} broadcast
      snapshots the shared live table; each shard prunes against the
      latest broadcast {e that reached it} over the fabric, which is
      sound under arbitrary staleness (under-pruning only) and pins,
      per LLT, exactly the boundary Theorem 3.5 requires — globally;
    - the {b commit decision} of a cross-shard transaction: presumed-
      abort two-phase commit over the shards' typed WALs. Prepares are
      forced at every participant, the decision ([Coord_commit]) is
      forced at the coordinator {e before} any participant applies,
      participants force their local outcome, acks collect at the
      coordinator, and a complete set lets it forget. Absence of a
      durable decision means abort.

    Since PR 9 the whole choreography — prepare requests and votes,
    decisions, acks, aborts, termination queries, and the epoch
    broadcast — rides a seeded {!Bus} with a {!Net_fault} model: loss,
    duplication, delay/reordering, and scheduled partitions. The
    robustness machinery on top:

    - {b timeout + bounded retry} on prepare votes (per-channel
      {!Backoff} streams — net retries cannot perturb any other
      subsystem's jitter);
    - {b idempotent receive paths}: duplicated or reordered prepare /
      decision / ack / forget traffic is harmless, live (per-shard
      dedup tables) and at recovery ({!Wal_recovery.expect} replay is
      naturally idempotent — qcheck-pinned);
    - {b cooperative termination}: an in-doubt participant queries the
      coordinator's durable decision table; presumed-abort only when
      the coordinator durably has no record — the same rule restart
      resolution applies to the same log;
    - {b graceful degradation}: single-shard traffic never touches the
      fabric and keeps committing under any partition; a cross-shard
      transaction spanning a partition fails fast ({!commit_checked}
      returns [Net_abort] — back-pressure, not a wedged pipeline); a
      shard behind a partition keeps its stale epoch and merely
      under-prunes until heal.

    With [Net_fault.none] (the default) the bus is a transparent
    pass-through: every message is delivered inline at the send site,
    no stream is ever drawn from, and the observable behaviour —
    WAL bytes, micro-step order, digests — is identical to the
    synchronous PR 7 code (pinned by test).

    Every durable action of the 2PC sequence bumps a global step
    counter and fires the [on_step] hook — the crash campaign's way of
    killing the system at {e every} point of the protocol and checking
    that recovery resolves each orphaned prepare to the same outcome on
    every shard. *)

type step =
  | Prepared of { tid : int; shard : int }
  | Decided of { tid : int; cts : int }
  | Applied of { tid : int; shard : int }
  | Acked of { tid : int; shard : int }
  | Forgotten of { tid : int }

type net_sabotage =
  | Apply_on_timeout
      (** an in-doubt participant unilaterally applies a fabricated
          commit instead of asking the coordinator — must trip
          [2pc-decision-missing] (or the cts-mismatch atomicity check) *)
  | Ack_forge
      (** a participant rolls its work back but acks the commit anyway,
          so the coordinator forgets a transaction one shard aborted —
          must trip [cross-shard-atomicity] *)

type outcome =
  | Committed of Clock.time
  | Net_abort of Clock.time
      (** cross-shard fail-fast: a participant was unreachable past the
          retry budget; the transaction was globally aborted — or, with
          replicas attached, the commit missed its replication quorum
          and the client must not be told "committed" *)

exception Shard_down of int
(** Raised by {!read} / {!write} when the target shard's replicated
    primary is dead and no successor has been promoted yet. Workers
    back off and retry after the failover window; commits on dead
    shards do not raise — they return [Net_abort]. *)

type t

val create :
  ?driver_config:State.config ->
  ?flavor:[ `Pg | `Mysql ] ->
  ?net:Net_fault.config ->
  ?net_rto:Clock.time ->
  ?net_indoubt_after:Clock.time ->
  shards:int ->
  Schema.t ->
  t
(** Build the group over a fresh shared manager and epoch source. The
    schema is the {e global} layout; each shard gets its slice as a
    local schema. [driver_config] must be durable when given (shards
    log); the default config is made durable. [net] attaches the fault
    model (default: the transparent pass-through). [net_rto] is the
    per-attempt vote timeout (default: 200 µs or the config's full
    delay window, whichever is larger); [net_indoubt_after] the
    participant termination timeout (default [8 * rto]). Raises
    [Invalid_argument] if [shards < 1] or a timeout is non-positive. *)

(** {1 Routing} *)

val shard_of : t -> rid:int -> int
val local_rid : t -> rid:int -> int
val global_rid : t -> sid:int -> local:int -> int
val local_records : shards:int -> records:int -> sid:int -> int
(** Number of global rids congruent to [sid] modulo [shards]. *)

(** {1 Transaction interface (global rids)} *)

val begin_txn : t -> now:Clock.time -> Txn.t * Clock.time
(** Begins in the shared order only; each shard logs its own
    [Txn_begin] on the transaction's first write there. *)

val read : t -> Txn.t -> rid:int -> now:Clock.time -> int * Clock.time
val write : t -> Txn.t -> rid:int -> payload:int -> now:Clock.time -> Engine.write_result

val commit_checked : t -> Txn.t -> now:Clock.time -> outcome
(** Read-only: manager commit only. One participant: plain single-shard
    durable commit (no 2PC, no fabric). Several: the presumed-abort
    sequence above, over the fabric — [Net_abort] when some participant
    stayed unreachable past the vote retry budget (the transaction is
    then globally aborted; stragglers resolve through resends or the
    termination protocol). *)

val commit : t -> Txn.t -> now:Clock.time -> Clock.time
(** {!commit_checked} with the outcome collapsed to its completion
    time. *)

val abort : t -> Txn.t -> now:Clock.time -> Clock.time

(** {1 Group services} *)

val broadcast : ?now:Clock.time -> t -> int
(** Take a fresh global dead-zone snapshot, bump the epoch, and offer
    it to every shard over the fabric ([now] times the sends; it only
    matters under a fault config). *)

val tick : t -> now:Clock.time -> unit
(** The resolver sweep: pump due traffic, resend unacknowledged
    decisions and aborts, and run the in-doubt termination protocol.
    A no-op in passthrough. The campaign driver schedules this
    periodically; the [on_step] hook may raise out of it (late applies
    are durable micro-steps). *)

val quiesce : t -> now:Clock.time -> Clock.time
(** Post-horizon settlement: tick (and keep broadcasting epochs) until
    in-doubt and in-flight residue drains or a fixed budget runs out
    (a never-healing partition legitimately pins residue). Returns the
    reached time. No-op in passthrough. *)

val maintenance : t -> now:Clock.time -> Clock.time
(** One background pass on every shard; returns the latest completion. *)

val finish : t -> now:Clock.time -> unit
val sample : t -> Engine.sample
(** Summed over shards ([max_chain] is the max). *)

(** {1 Crash and recovery} *)

val crash_all : t -> unit
(** Whole-system power loss: truncate every shard's WAL at its flushed
    LSN, drop all in-flight 2PC bookkeeping and
    every frame the fabric still held. The caller drops its in-flight
    transactions — never aborts them through the engine — and then
    calls {!restart_all}. *)

val restart_all : t -> now:Clock.time -> Engine.restart_info list
(** Group restart: reset the shared manager once, restart each shard in
    ascending sid order (merging recovered outcomes, resolving in-doubt
    transactions from the coordinators' durable logs), then broadcast a
    fresh epoch. *)

(** {1 Network invariants} *)

val check_indoubt_liveness : t -> now:Clock.time -> (string * string) list
(** [(invariant, detail)] pairs — ["in-doubt-liveness"] for every
    prepared transaction whose coordinator is reachable yet has sat
    unresolved longer than the bound ([8 * indoubt_after]) since
    [max prepared_at last_heal]. Pairs still severed by an active
    partition are excluded (pinned doubt under a partition is the
    documented degradation, not a violation). *)

val check_epoch_lag : ?bound:int -> t -> now:Clock.time -> (string * string) list
(** ["reclamation-lag-after-heal"] for every shard whose applied epoch
    lags the broadcaster by more than [bound] (default 12) broadcasts
    while no partition is active. Empty while a partition is active. *)

(** {1 Introspection and knobs} *)

val shards : t -> Shard.t array
val mgr : t -> Txn_manager.t
val epoch : t -> Epoch.t
val wals : t -> (int * Wal.t) list
val total_lsn : t -> int
(** Sum of every shard's highest surviving LSN — the crash-point
    schedule's notion of global log position. *)

val two_pc_steps : t -> int
val single_commits : t -> int
val cross_commits : t -> int

val net_indoubt_after : t -> Clock.time
val net_stats : t -> Bus.stats
val net_aborts : t -> int
(** Cross-shard transactions failed fast as unreachable. *)

val net_pending : t -> int
(** Frames in flight plus decisions/aborts still awaiting full
    acknowledgement. *)

val indoubt_count : t -> sid:int -> int
val indoubt_total : t -> int
val epoch_lag : t -> sid:int -> int
(** Broadcast epoch minus the shard's applied epoch. *)

val max_indoubt_residence : t -> Clock.time
val mean_indoubt_residence : t -> float
(** Longest / mean prepared→resolved residence observed (ns). *)

val set_on_step : t -> (int -> step -> unit) option -> unit
(** Fires after every durable 2PC micro-step with the global step
    counter. The hook may raise to model a crash at exactly that point
    of the protocol; the raise propagates out of {!commit} (or
    {!tick}, for late applies). *)

val set_skip_coord_decision : t -> bool -> unit
(** Sabotage: commit cross-shard transactions {e without} forcing the
    coordinator's decision record. Participants then hold committed
    work whose decision no durable log witnesses — caught by
    {!Invariant.check_cross_shard_atomicity} ("2pc-decision-missing"
    statically; "cross-shard-atomicity" after a crash between the
    participant applies). *)

val set_net_sabotage : t -> net_sabotage option -> unit
(** Arm a network-layer sabotage mode (see {!net_sabotage}); [None]
    restores honesty. *)

(** {1 Replication}

    With a {!Replica} layer attached, every shard's device is held by
    the current primary of an [R+1]-node group and a commit is
    acknowledged to the client only once its decision frame is
    quorum-replicated: single-shard commits gate on their own group,
    cross-shard commits additionally gate the coordinator's
    [Coord_commit]; prepare votes are withheld until the prepare frame
    is quorum-durable (so a vote is a promise that survives failover).
    Dead shards drop all protocol traffic and fail commits fast;
    promotion runs a single-shard restart on the adopted timeline
    ({e promote fixup}): poison open writers that lost un-replicated
    writes, flip decided-but-unreplicated commits back to aborted with
    compensating records, replay the device, and re-arm the
    coordinator's unforgotten decisions for resend. Without an attached
    layer every path below is the identity and the group's observable
    behaviour is byte-identical to the unreplicated build. *)

val attach_replicas : t -> Replica.t -> unit
(** Wire a replica layer (built over {!wals}) into the commit and vote
    paths and install the promotion fixup. Raises [Invalid_argument]
    if already attached or the shard counts disagree. *)

val shard_is_up : t -> int -> bool
(** Whether the shard currently has a live primary (always true
    unreplicated). *)

val acked : t -> (int * int * int list) list
(** The client-visible ledger: [(tid, cts, participants)] for every
    commit acknowledged as [Committed], sorted by tid. What
    {!Invariant.check_no_committed_loss} audits the logs against; the
    commit timestamp lets the oracle skip entries that have aged past a
    log's bounded checkpoint window. *)

val acked_from : t -> int -> (int * int * int list) list
(** The ledger past its first [n] entries, in acknowledgement order. *)

