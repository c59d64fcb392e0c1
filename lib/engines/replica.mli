(** Shard replication: deterministic WAL log-shipping, lease-based
    failover, and epoch fencing (DESIGN §4j).

    Each shard's authoritative WAL (the device the engine logs to) is
    attached to whichever of [replicas + 1] nodes currently holds the
    shard's primary {!Lease}. Backups maintain exact-prefix mirrors by
    frame shipping over a per-group in-process bus; {!replicate}
    reports [`Quorum] only once the backlog is durable on [quorum]
    nodes, and the shard group acknowledges commits to clients only on
    [`Quorum]. Node death is injected with {!kill}; {!sweep} detects
    the expired lease and deterministically promotes the
    highest-caught-up live backup under a bumped replication epoch,
    fencing the old primary's frames and votes for good.

    Everything is a pure function of the caller-supplied clock and the
    kill/revive schedule — no randomness, no wall time — so simulated
    and multicore runs of one seed make identical decisions. *)

type sabotage =
  | Ack_before_replicate
      (** Acknowledge quorum durability without shipping any frame;
          the backlog only converges at the next {!sweep}. A kill in
          that window loses acknowledged commits —
          [no-committed-loss] must catch it. *)
  | Stale_primary_writes
      (** A revived ex-primary refuses its fencing: it claims the
          shard, fabricates commit frames on its stale log and keeps
          shipping/acking under its old epoch. [no-split-brain] and
          [no-committed-loss] must catch it. *)

(** Observable replication steps, fired {e before} the corresponding
    send so a kill schedule can land between intent and effect. *)
type rstep =
  | R_ship of { sid : int; node : int; frames : int }
      (** Primary about to ship [frames] frames to backup [node]. *)
  | R_ack of { sid : int; node : int; upto : int }
      (** Backup [node] about to acknowledge its mirror up to [upto]. *)
  | R_quorum of { sid : int }
      (** Primary about to evaluate the quorum condition. *)
  | R_promote of { sid : int; node : int }
      (** [node] was just promoted to primary of [sid]. *)

val rstep_sid : rstep -> int

type t

val create :
  ?quorum:int ->
  ?lease:Clock.time ->
  replicas:int ->
  wals:(int * Wal.t) list ->
  unit ->
  t
(** One replication group per [(sid, wal)] pair (sids must be
    [0..n-1]; each wal must be durable — pass {!Shard_group.wals}).
    Every group gets [replicas] backups seeded as exact copies; node 0
    starts as primary holding a [lease]-long authority lease (default
    50 ms, simulated). [quorum] defaults to a majority of
    [replicas + 1] and must lie in [1 .. replicas + 1]. Raises
    [Invalid_argument] on bad arguments. *)

val set_on_step : t -> (now:Clock.time -> rstep -> unit) -> unit
(** Install the step hook (the kill-schedule injection point). The
    hook must not raise; it may call {!kill}. *)

val set_on_promote : t -> (sid:int -> node:int -> now:Clock.time -> unit) -> unit
(** Called at the end of each promotion, after the device is adopted,
    the fencing marker forced and the lease re-granted — the shard
    group uses it to restart the engine on the promoted timeline. *)

val set_sabotage : t -> sabotage option -> unit

val replicate : t -> sid:int -> now:Clock.time -> [ `Quorum | `Degraded ]
(** Ship the primary's backlog to every lagging live backup and report
    whether the pre-ship device contents are durable on [quorum] nodes
    (counting the primary). [`Degraded] whenever the primary is dead
    or too few backups acked — the caller must not acknowledge the
    commit to the client. *)

val kill : t -> sid:int -> node:int -> now:Clock.time -> bool
(** Whole-node death. Killing the primary snapshots the device into
    the node's own mirror (the coffin a revival will find), detaches
    the device and starts the failover clock. Returns [false] — no
    kill — if the node is already dead or another node of the group is
    (one dead node per group keeps campaigns recoverable). *)

val revive : t -> sid:int -> node:int -> now:Clock.time -> bool
(** Bring a dead node back. Honestly: it state-transfers from the
    current device and rejoins as a caught-up backup. Under
    {!Stale_primary_writes}, a dead ex-primary instead comes back once
    a successor holds the shard, keeps its stale log and claims the
    shard again. [false] if the node is alive (or the stale revival is
    not yet due). *)

val sweep : t -> now:Clock.time -> unit
(** The failover heartbeat: renew live primaries' leases, promote
    every expired primaryless group (two-phase across groups so
    cross-shard resolvers never read a device that is still about to
    be rolled back), ship catch-up backlogs, and let a stale claimant
    emit its fenced noise. Call periodically from the scheduler. *)

val quorum : t -> int
val shard_count : t -> int
val primary : t -> sid:int -> int option
(** [None] while the shard is primaryless (failover pending). *)

val shard_up : t -> sid:int -> bool
val epoch : t -> sid:int -> int
val node_alive : t -> sid:int -> node:int -> bool
val mirror : t -> sid:int -> node:int -> Wal.t
(** The node's private mirror (tests inspect prefix equality). *)

val dead_nodes : t -> (int * int) list
(** [(sid, node)] pairs currently dead, oldest kill first. *)

val stale_acked : t -> (int * int * int list) list
(** Fabricated [(tid, cts, shards)] acks a stale primary handed to
    clients; the loss invariant is checked against the union of the
    real and stale ledgers. The fabricated commit timestamps sit far
    above any real oracle frontier, so they never age out of the
    oracle's checkpoint window. Oldest first. *)

val unreplicated_floor : t -> Timestamp.t
(** The smallest tid with a commit or abort frame on some shard's
    device past the shortest live backup mirror — an outcome a failover
    may still lose ([Timestamp.infinity] if none). The shard group
    registers it as a commit-log horizon floor. *)

val promotions : t -> sid:int -> int
val fencings : t -> sid:int -> int
val kills : t -> int
val revives : t -> int
val stale_ack_count : t -> int

val lags : t -> (int * Clock.time) list
(** Completed failovers as [(sid, promotion_time - kill_time)],
    oldest first. *)

val check_no_split_brain : t -> (string * string) list
(** [(invariant, detail)] rows — one per group with more than one live
    node claiming the shard. Empty in honest runs. *)

val check_failover_lag : t -> bound:Clock.time -> now:Clock.time -> (string * string) list
(** Completed failovers that took longer than [bound], plus groups
    primaryless past [bound] despite a live promotable backup. *)
