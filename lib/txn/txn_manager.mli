(** Live-transaction table.

    The engine-shared structure the paper builds dead zones from: MySQL's
    [trx_sys->mvcc] list / PostgreSQL's proc array (§3.3, §4.3).
    Provides begin/commit/abort, read-view construction, the oldest-active
    boundary (the vanilla GC criterion), and LLT identification by age.

    It also owns the commit log's freeze horizon ({!Commit_log}): each
    time the oracle enters a new log page, {!begin_txn} moves the
    horizon to the freeze horizon — the minimum of
    {!oldest_visible_horizon} and {!floor}, rounded down to a page
    boundary by the log — dropping the log pages below it. Every
    tid below that point has finished with an outcome timestamp below
    every live begin timestamp, so the commit log's frozen answer
    ("committed before every live snapshot") is exact there for every
    creator whose versions survive. Parts of the system that still need
    exact answers about older tids hold the horizon back with
    {!register_floor}. *)

type t

val create : unit -> t

val oracle : t -> Timestamp.t
(** Current value of the timestamp oracle (proxy for [C^T]). *)

val begin_txn : t -> now:Clock.time -> Txn.t
(** Moves the freeze horizon first when the oracle has entered a new
    commit-log page since the last move. *)

val commit : t -> Txn.t -> now:Clock.time -> unit
(** Assigns a commit timestamp, records it in the commit log and removes
    the transaction from the live table. Raises [Invalid_argument] if the
    transaction is not active. *)

val abort : t -> Txn.t -> now:Clock.time -> unit
(** Roll the transaction back and retire it from the live table. If a
    failover already recorded a durable outcome for this tid (promotion
    treats un-replicated open transactions as recovery losers), that
    first outcome is kept and only the live entry is retired. *)

val rollback_unreplicated : t -> tid:Timestamp.t -> Timestamp.t option
(** Promotion-path compensation: if [tid] is recorded committed but the
    decision never reached a replication quorum, flip it to aborted at a
    fresh timestamp and return that timestamp so the caller can log the
    compensating abort record. [None] if the tid is not recorded
    committed (nothing to compensate). Only the replica promotion fixup
    may call this. *)

val reset_for_recovery : t -> unit
(** Wipe the live table and commit log without restoring anything — the
    shard group calls this once before letting each shard merge its
    recovered outcomes in via [crash_recover ~reset:false]. *)

val crash_recover :
  ?reset:bool ->
  t ->
  committed:(Timestamp.t * Timestamp.t) list ->
  aborted:(Timestamp.t * Timestamp.t) list ->
  losers:Timestamp.t list ->
  oracle_floor:Timestamp.t ->
  (Timestamp.t * Timestamp.t) list
(** Restart path: wipe the live table ([~reset], default true; shards
    sharing one manager pass [false] and merge), rebuild the commit log
    from the recovered outcomes, ratchet the oracle past every recovered
    timestamp, then roll back each loser by recording an abort at a
    fresh timestamp. First outcome wins on conflicting restores — within
    one log and across shards alike. Returns the [(tid, abort_ts)] pairs
    so the caller can write the compensating abort records to the log. *)

val register_floor : t -> (unit -> Timestamp.t) -> unit
(** Add a floor: the horizon never passes the smallest tid any
    registered function returns when the horizon moves
    ([Timestamp.infinity] for none). The SIRO engine registers its
    unstamped writers, the offrow interval scan 0 (it keeps the whole
    log), the shard group its in-doubt and un-replicated outcomes. The
    manager keeps the function, and what it captures, for its own
    lifetime. *)

val floor : t -> Timestamp.t
(** The smallest registered floor now; [Timestamp.infinity] if none. *)

val advance_horizon : t -> unit
(** Move the commit log's horizon to the freeze horizon now rather than
    at the next page boundary. *)

val set_clog_over_truncate : t -> bool -> unit
(** Sabotage: every horizon move goes one log page past
    the freeze horizon. The [clog-horizon] invariant must catch it. *)

val set_horizon_audit : t -> (now:Clock.time -> unit) option -> unit
(** Install (or remove) a hook {!begin_txn} calls right after each
    page-boundary horizon move — the continuous [clog-horizon] audit,
    which must see an over-truncated log before anything reads it. *)

val commit_log : t -> Commit_log.t
val live_count : t -> int
val live_begin_ts : t -> Timestamp.t list
(** Sorted ascending. *)

val live_views : t -> Read_view.t list
(** Read views of all live transactions, ascending by creator ts. *)

val oldest_active : t -> Timestamp.t option
val oldest_visible_horizon : t -> Timestamp.t
(** Versions with [ve] below this are invisible to every live view —
    the vanilla purge/vacuum boundary. Equals the oracle when no
    transaction is live. *)

val shed_candidates : t -> now:Clock.time -> min_age:Clock.time -> Txn.t list
(** Live transactions older than [min_age], oldest begin timestamp
    first — the victim order of the governor's snapshot-too-old policy
    (shed the most harmful pin first). *)

val llt_views : t -> now:Clock.time -> delta_llt:Clock.time -> Read_view.t list
(** Views of live transactions whose age exceeds [delta_llt] — the
    classifier's notion of "known LLTs". A transaction younger than the
    threshold is invisible here even if it will live long: that gap is
    the paper's vulnerability window. *)

val avg_txn_duration : t -> Clock.time
(** Exponentially-weighted average duration of committed transactions
    (basis for choosing [delta_llt] as "a multiple of an average
    transaction length"). Zero until the first commit. *)

val aborted : t -> int
