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
          archived. Both 2PC members encode only when non-empty;
          unsharded snapshots keep the pre-sharding bytes. *)
}

val to_json : t -> Jsonx.t
(** The specification of the snapshot bytes: [Jsonx.to_string (to_json
    t)]. Members in the order of the record's fields ([seg_id] named
    [seg]); [prepared] and [decisions] only when non-empty. *)

val of_json : Jsonx.t -> (t, string) result
(** The specification of reading a snapshot: members by name, in any
    order; absent [prepared]/[decisions] read as empty. *)

val write : Canon.out -> t -> unit
(** Appends exactly [Jsonx.to_string (to_json t)], written straight into
    the frame's buffer with no {!Jsonx} tree: the WAL writes every
    [Ckpt_end] frame this way. *)

val scan : Canon.cursor -> t
(** Reads one snapshot in the layout {!write} writes, in one pass,
    and leaves the cursor after its closing brace. Whenever it returns,
    the bytes it read are ones {!Jsonx} prints back unchanged, and the
    result is what [of_json] reads from their tree. Raises {!Canon.Not_canonical} on anything else —
    whitespace, escapes, reordered or missing members, an int not
    spelled as [string_of_int] spells it — and the caller falls back to
    [Jsonx.of_string] and {!of_json}. *)
