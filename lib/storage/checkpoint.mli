(** Fuzzy checkpoint snapshots.

    A checkpoint is one [Ckpt_end] WAL record whose payload captures
    everything redo needs so replay cost is bounded by the distance to
    the last checkpoint rather than by history (the bounded-space MVGC
    motivation):

    - the timestamp-oracle frontier and the live-transaction begin set
      (the dead-zone inputs);
    - a {e bounded} commit-log window — outcomes of transactions no
      older than the oldest live begin timestamp; older commit
      timestamps recovery could still need travel with the data that
      references them (each row carries its creator's [cts], each
      relocated version its precomputed prune interval);
    - the last-committed in-row image of every record, plus the
      uncommitted write sets of in-flight transactions ([pending]) so a
      transaction that spans the checkpoint and commits after it can be
      replayed without rereading pre-checkpoint log;
    - every live off-row segment with its full version contents and
      descriptor state (class, hardened or still buffered).

    The checkpoint is fuzzy: it is taken while transactions are in
    flight, and never waits for them. *)

type seg_version = {
  rid : int;
  vs : int;
  ve : int;
  vs_time : int;
  ve_time : int;
  bytes : int;
  value : int;
  lo : int;
  hi : int;
}

type seg = { seg_id : int; cls : string; hardened : bool; versions : seg_version list }

type row = { rid : int; value : int; vs : int; vs_time : int; cts : int }
(** Last-committed in-row version of record [rid]; [cts] is the
    creator's commit timestamp (0 for the initial version [vs = 0]). *)

type pending_write = { rid : int; value : int; vs_time : int }
type pending = { tid : int; writes : pending_write list }

type t = {
  at : int;
  oracle_next : int;
  live : int list;
  committed : (int * int) list;  (** [(tid, commit_ts)], bounded window. *)
  aborted : (int * int) list;
  rows : row list;
  pending : pending list;
  segments : seg list;
  next_seg_id : int;
  prepared : (int * int) list;
      (** [(tid, coord_shard)] — transactions 2PC-prepared on this shard
          with no decision applied locally at snapshot time. Without
          this member a crash landing between the checkpoint and the
          coordinator's decision would replay the transaction as an
          ordinary loser and roll it back even when the coordinator
          committed it — the in-doubt state must survive the snapshot. *)
  decisions : (int * int) list;
      (** [(gid, commit_ts)] — coordinator-side decided-but-unforgotten
          transactions (this shard acting as coordinator), so in-doubt
          resolution keeps working even if pre-checkpoint log is
          archived. *)
}

val write : Wire.out -> t -> unit
(** Appends the snapshot in the frame's {!Wire} primitives: every
    member in the order of the record's fields, each int a varint,
    each list its count and then its items, [cls] a string and
    [hardened] a byte. Every member is always written, empty lists
    included. The WAL writes every [Ckpt_end] frame's snapshot this
    way; [test/ref_codec.ml] is a separately written reference. *)

val scan : Wire.cursor -> t
(** Reads one snapshot in the layout {!write} writes, in one pass,
    and leaves the cursor after it. Raises {!Wire.Malformed} on
    anything else, and the frame holding it then fails to decode. *)
