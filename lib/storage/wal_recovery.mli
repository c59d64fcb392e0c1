(** Log analysis for restart recovery — and the independent oracle the
    post-recovery invariants check the engine against.

    {!analyze} scans the surviving frames in LSN order, decoding and
    CRC-verifying each, and truncates at the first bad frame: a torn or
    bit-flipped record ends the trustworthy prefix. {!expect} then folds
    checkpoint + redo into the {e expected} post-recovery state:
    transaction outcomes, losers to roll back, the committed in-row
    image, and the surviving off-row segments with their contents. A
    {!cursor} does both incrementally, folding each frame into the same
    tables as it is read.

    The engine's restart path and the {!Invariant} checker both consume
    this module — the engine with its configured knobs (including the
    [skip_tail_check] sabotage), the checker always honestly — which is
    what makes an unsound recovery provably catchable. *)

type analysis = {
  records : Wal_record.t list;
      (** Decoded trustworthy records after the replay anchor
          ({!field-steady_checkpoint}, or from the first frame without
          one), LSN order. Kept [Ckpt_end] records carry [None] for
          their snapshot: the decoded anchors are
          {!field-checkpoint} and {!field-steady_checkpoint}. *)
  survivors : int;
      (** Trustworthy frames of the whole history: the ones decoded
          here plus the ones {!Wal.discard_below} recycled
          ({!Wal.discarded}), which all lay below a checkpoint the log
          still holds. What the restart cost model charges for. *)
  truncate_lsn : int;  (** LSN of the last trustworthy frame (0 if none). *)
  dropped : int;  (** Frames rejected at the tail (never discarded ones). *)
  checkpoint : (int * Checkpoint.t) option;
      (** Last complete checkpoint in the prefix, with its [Ckpt_end] LSN. *)
  steady_checkpoint : (int * Checkpoint.t) option;
      (** Last complete checkpoint that is not a {e failover}
          checkpoint — the first [Ckpt_end] after a [Promote], which a
          promotion's recovery writes. Equal to {!field-checkpoint}
          unless a promotion happened since the last ordinary one. *)
  coord_commits : (int * int * int list) list;
      (** The rest are facts of the {e whole} trustworthy prefix, newest
          first. [(gid, cts, shards)] of every [Coord_commit]. *)
  coord_aborts : int list;  (** gid of every [Coord_abort]. *)
  prepares : (int * int) list;  (** [(tid, coord)] of every [Prepare]. *)
  forgets : int list;  (** gid of every [Forget]. *)
  prepared_commits : (int * int) list;
      (** [(tid, coord)] of every [Txn_commit] whose transaction has an
          earlier [Prepare] here, [coord] taken from the latest one. *)
}

val analyze : ?check_crc:bool -> Wal.t -> analysis
(** The from-scratch analysis: decodes every frame in one forward
    pass, the one a {!cursor} makes but keeping no expectation, so it
    holds only what the result keeps
    (the records after the steady anchor and the anchors' snapshots),
    never the whole decoded log. [~check_crc:false] is the sabotage
    knob: frames are still parsed but checksums are ignored, so a
    fabricated torn tail gets replayed. A frame whose shard tag differs
    from [Wal.shard wal] ends the trustworthy prefix regardless of the
    knob: shard logs are disjoint LSN namespaces and interleaved
    foreign frames are corruption. The tests check it and {!advance}
    against an independent formulation that keeps the whole decoded
    log and walks back from the tail to the anchors
    (test/ref_recovery.ml). *)

(** {1 Incremental analysis} *)

type cursor
(** How far one log has been CRC-verified and decoded, plus the state
    {!analyze} would build from that prefix: the anchors, the records
    after the steady anchor, and the whole-prefix facts. It keeps no
    record before its anchor and no checkpoint snapshot other than its
    anchors. It also keeps {!expect}'s tables for the steady anchor —
    committed, aborted, live, prepared, pending, rows, segments and
    decisions — re-seeded from each steady checkpoint's snapshot as it
    is decoded, with every later record folded in as it is read. *)

val cursor : ?stale:bool -> unit -> cursor
(** A cursor that has read nothing. [~stale:true] is the sabotage
    knob: the cursor ignores {!Wal.mutations}, so after a crash or a
    truncation it keeps folding onto records the device no longer
    holds. *)

val sync : cursor -> Wal.t -> unit
(** Decode and fold the frames appended since the last call. The
    cursor starts again from the first frame when [wal] is not the
    device it read last, or when {!Wal.mutations} moved. *)

val advance : cursor -> Wal.t -> analysis
(** {!sync}, then the analysis of the whole log — always equal to
    [analyze wal] (CRC on). The cost is that of the new frames plus
    one reversal of the kept records. *)

val decisions : analysis -> (int, int) Hashtbl.t
(** [gid -> cts]: the durable coordinator decisions — every
    [Coord_commit] in the prefix, over the last checkpoint's decision
    window. What an in-doubt participant is told. *)

type seg_build = {
  seg_id : int;
  cls : string;
  hardened : bool;
  versions : Checkpoint.seg_version list;  (** Relocation order. *)
}

type expectation = {
  committed : (int * int) list;
      (** [(tid, cts)], sorted — the checkpoint window, redo outcomes,
          and the creators of recovered rows. *)
  aborted : (int * int) list;
  losers : int list;  (** Began, no durable outcome: must be rolled back. *)
  rows : Checkpoint.row list;  (** Expected in-row image, sorted by rid. *)
  segments : seg_build list;  (** Surviving segments, sorted by id. *)
  dead_segs : int list;  (** Dropped or cut — must not be resurrected. *)
  next_seg_id : int;
  oracle_floor : int;  (** Timestamp oracle must resume at or above this. *)
  replayed : int;  (** Redo records applied past the checkpoint. *)
  indoubt : (int * int) list;
      (** [(tid, coord_shard)], sorted — 2PC-prepared here with no local
          outcome. Resolved through [?resolve] when given; the
          unresolved remainder stays in {!field-losers} (presumed
          abort). *)
  resolved_commits : (int * int) list;
      (** [(tid, cts)] in-doubt transactions the resolver committed —
          their pending writes are folded into {!field-rows}. *)
  decisions : (int * int) list;
      (** [(gid, cts)] coordinator commit decisions durable in {e this}
          log (checkpoint window plus replayed [Coord_commit] records) —
          what other shards' resolvers come asking for. *)
}

val expect :
  ?resolve:(unit -> tid:int -> coord:int -> int option) -> analysis -> expectation
(** [resolve ()] is called once, and only when the log has in-doubt
    transactions; the lookup it returns answers each of them from the
    coordinator shard's durable state: [Some cts] iff a [Coord_commit]
    for [tid] survived in shard [coord]'s log. A resolver that reads
    coordinator logs builds its tables in [resolve ()], so one
    [expect] reads each coordinator once. Without a resolver every
    in-doubt transaction is presumed aborted. *)

(** {1 The cursor as an incremental oracle} *)

val expectation : cursor -> Wal.t -> expectation
(** [expect (analyze wal)] for the log the cursor last read, from its
    tables at a cost in proportion to them. Falls back to {!expect}
    while the newest checkpoint is a failover one. *)

val decision : cursor -> int -> (int * [ `Log | `Window ]) option
(** The commit timestamp {!decisions} holds for a gid, and whether a
    [Coord_commit] in the log or only the last checkpoint's window
    vouches for it. *)

val take_changed : cursor -> int list
(** Transactions whose committed, aborted, live or prepared entry, or
    row-creator count, changed since the last call. *)

val restarts : cursor -> int
(** Bumped each time the cursor starts again from the first frame. *)

val horizon : cursor -> int
(** The steady checkpoint's [oracle_next], or 0. *)

val prepared_commits : cursor -> int * (int * int) list
(** How many, and the {!field-prepared_commits} list, newest first. *)

val vouched : cursor -> (int * int) list
(** [(tid, coord)] of each [Txn_commit] after the newest checkpoint
    whose transaction is in that checkpoint's in-doubt set and has no
    [Prepare] in the log, in LSN order. *)

type outcome = {
  commits : int list;  (** Commit timestamps the expectation lists, ascending. *)
  aborted : bool;
  loser : bool;
}

type view = {
  outcome : int -> outcome;  (** One transaction's resolved outcome. *)
  touched : int list;  (** Transactions whose outcome resolution decides. *)
}

val outcomes : expectation -> view
(** An expectation by transaction; [touched] lists all of them. *)

val views : cursor -> Wal.t -> lookup:(tid:int -> coord:int -> int option) -> view * view
(** The resolved outcomes of [expect ~resolve (analyze wal)], and of
    the same analysis re-anchored at its steady checkpoint, in-doubt
    transactions asked through [lookup]. The cursor's tables are
    overlaid, not changed: the cost is that of the in-doubt set and
    their writes. The two are one value while the newest checkpoint
    is steady; otherwise the first is {!outcomes} of the from-scratch
    expectation. *)

val inject_torn_commit : Wal.t -> at:Clock.time -> unit
(** Fabricate a torn tail: append a [Txn_commit] frame with a bad CRC
    for a transaction the surviving prefix says is undecided — its
    first loser, committing just past the oracle floor — or, with no
    loser, for a timestamp the log never handed out. Honest recovery
    truncates the frame; recovery that skips the tail check replays
    it. *)
