(** Global epoch broadcast of the dead-zone snapshot.

    With the keyspace sharded into independent vDriver pipelines, each
    shard prunes against the {e same} global picture of live
    transactions: a coordinator-side process periodically snapshots the
    shared live table into a {!Zone_set} and bumps the epoch; every
    shard's [State.refresh_zones] then reads the latest broadcast
    instead of the live table directly.

    Soundness under staleness is the whole point. A broadcast taken at
    oracle time [C^T] can only cover intervals with [hi < C^T]
    ({!Zone_set.covers}); any transaction that begins after the
    broadcast draws a begin timestamp [>= C^T], so its boundary can
    never fall strictly inside an interval the stale snapshot already
    covers. A stale epoch therefore only {e under}-prunes — shard-local
    prune decisions stay sound against every live global snapshot, which
    keeps Theorem 3.5's guarantee global while the work stays
    per-shard (the per-process-local GC shape of Ben-David et al.). An
    LLT on one shard pins on every other shard exactly the boundary its
    begin timestamp contributes to the broadcast — no more. *)

type t

val create : Txn_manager.t -> t
(** Epoch 0 carries an initial snapshot so subscribers are never
    zone-less. *)

val broadcast : t -> int
(** Take a fresh global snapshot, advance the epoch, and return it. *)

val current : t -> Zone_set.t
(** The latest broadcast snapshot (what subscribers consume). *)

val epoch : t -> int

val snapshot : t -> int * Zone_set.t * Timestamp.t
(** [(epoch, zones, broadcast_ts)] of the latest broadcast as one
    value — what a fabric-delivered epoch message carries. Subscribers
    that consume broadcasts through a lossy channel must apply a
    snapshot only when its epoch is newer than the one they hold:
    epochs are monotone, so duplicates and reorderings are no-ops, and
    a stale snapshot only under-prunes (the {!Epoch} soundness
    argument is per-snapshot, not per-delivery). *)
