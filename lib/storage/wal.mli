(** Write-ahead log: redo-volume accounting plus an opt-in durable mode.

    The byte-accounting face is unchanged from the seed: page splits in
    in-row engines "produce redo logs for capturing changes" (§2.1); we
    track the bytes so the cost shows up in the space metrics. Writes
    pass through the ["wal.append"] fail-point: a failed append is
    dropped (the simulated log device rejected it) and counted in
    {!errors} instead of {!total_bytes} — chaos campaigns assert the
    accounting stays conservative under storms of these.

    {!enable_durability} switches on the typed-record log underneath the
    same counters: {!log} writes a {!Wal_record.payload} as one binary
    frame ({!Wal_record.encode}: kind byte, LSN, time, shard, payload
    fields, CRC-32) and counts its bytes in {!total_bytes}, the engines'
    redo volume, which no simulated cost reads; {!fsync} advances the
    durability frontier (through the
    ["wal.fsync"] fail-point, failures counted in {!errors} the same
    conservative way), and {!crash} models power loss by discarding
    every frame past a survival point. A non-durable [t] behaves
    byte-for-byte as before — {!log} is a no-op returning [None] with
    no side effects, which is what keeps non-crash runs bit-identical. *)

type t

type frame = private { lsn : int; repr : string }
(** One surviving frame on a device: its LSN and its bytes. Frames are
    immutable, and log shipping hands them over by reference: a mirror
    appends the very record its primary holds ({!receive}), {!adopt}
    copies the records, and a fault on one device ({!corrupt_frame})
    replaces a slot of that device, never a shared record. *)

val create : ?shard:int -> unit -> t
(** [shard] (default 0) namespaces the log: every frame {!log} writes
    carries the tag, and {!Wal_recovery.analyze} refuses frames tagged
    for a different shard. *)

val shard : t -> int
val set_shard : t -> int -> unit

val mutations : t -> int
(** Bumped by every operation that changes a durable device other than
    by appending a well-formed frame: {!crash}, {!truncate_to},
    {!discard_below} (when it drops a frame), {!inject_raw},
    {!corrupt_frame}, {!adopt} and {!set_shard}. An incremental reader
    ({!Wal_recovery.advance}) that sees it move must start again from
    the first frame. Always 0 for a non-durable log, which has no
    frames. *)

val append : t -> ?at:int -> bytes:int -> unit -> unit
(** Append a record, unless the ["wal.append"] fail-point fires. [at]
    is the simulated time in ns; when given, the append (or its
    injected failure) is also recorded on the WAL trace track and in
    the metrics registry in scope. *)

val total_bytes : t -> int
val records : t -> int

val errors : t -> int
(** Appends and fsyncs rejected by fault injection. *)

(** {1 Durable mode} *)

val enable_durability : t -> unit
(** Idempotent. Until called, {!log} returns [None] without side
    effects and {!fsync} returns [true] without side effects. *)

val is_durable : t -> bool

val log : t -> ?at:int -> Wal_record.payload -> int option
(** Frame and append a typed record; returns its LSN. [None] when
    durability is off, or when the ["wal.append"] fail-point rejected
    the write (then the record is lost {e before} receiving an LSN, so
    surviving LSNs are gap-free, and the loss is counted in
    {!errors}). *)

val fsync : t -> ?at:int -> unit -> bool
(** Advance the durability frontier to the last logged record. Goes
    through the ["wal.fsync"] fail-point; a rejected fsync leaves the
    frontier alone, counts into {!errors}, and returns [false]. *)

val max_lsn : t -> int
(** LSN of the last surviving frame (0 if none / non-durable). *)

val flushed_lsn : t -> int
(** The durability frontier: frames at or below it survive a {!crash}
    with no explicit survival point. *)

val next_lsn : t -> int
(** The LSN the next append (or {!inject_raw}) will claim. Differs from
    [max_lsn t + 1] after a crash: LSNs are never reused. *)

val fsync_failures : t -> int
val crashes : t -> int

val frames : t -> (int * string) list
(** Surviving frames in LSN order, for recovery scans. *)

val bootstrap_lsn : int
(** LSN of the engine-creation checkpoint's [Ckpt_end] frame: the
    {!crash_base} of a log that has discarded nothing. *)

val crash_base : t -> int
(** The LSN {!crash} never cuts below, so recovery always has a base
    image: {!bootstrap_lsn} until a {!discard_below} moves it up to
    the [Ckpt_end] of the oldest checkpoint the log still holds. *)

val crash : t -> keep_lsn:int -> unit
(** Power loss: discard every frame with LSN beyond
    [max keep_lsn (crash_base t)] and pull the flushed frontier back to
    the survival point. LSNs are never reused afterwards. *)

val truncate_to : t -> lsn:int -> unit
(** Physically drop frames beyond [lsn] — recovery calls this after
    identifying the last trustworthy frame, so a corrupt tail cannot
    shadow post-recovery appends on the next scan. *)

val discard_below : t -> lsn:int -> anchor:int -> unit
(** Recycle the log prefix: drop every frame with an LSN below [lsn].
    A checkpoint's caller passes the [Ckpt_begin] LSN of a complete
    checkpoint as [lsn] and that checkpoint's [Ckpt_end] LSN as
    [anchor]: recovery replays from a checkpoint plus the frames after
    it, so nothing older is needed as long as that checkpoint stays,
    and {!crash_base} rises to [anchor] so that no crash can cut it.
    The dropped frames are counted in {!discarded}; the byte and
    record counters ({!total_bytes}, {!records}) keep counting every
    append. LSNs stay strictly increasing, so {!frames_from} and
    {!corrupt_frame} see a log that merely starts later. *)

val discarded : t -> int
(** Frames dropped by {!discard_below} since the log was enabled
    (copied by {!adopt}). {!Wal_recovery.analyze} counts them among
    its [survivors], so the cost model still charges a restart for
    the whole history. *)

val inject_raw : t -> string -> int
(** Append a raw (typically corrupt) frame, claiming the next LSN but
    bypassing the append counters — the harness's torn-sector model.
    Returns the claimed LSN. *)

(** {1 Log shipping} *)

val frames_from : t -> lsn:int -> frame array
(** Surviving frames strictly beyond [lsn], in LSN order — the
    primary-side read for shipping a backup everything past its
    replication cursor. The array holds the device's own frame
    records, so shipping copies no frame. A binary search over the
    LSN-ordered frames finds the first one, so the cost is
    O(log n + tail). *)

val iter_from : t -> lsn:int -> (int -> string -> unit) -> unit
(** [iter_from t ~lsn f] applies [f lsn repr] to the frames of
    {!frames_from}, in LSN order, without building their array — the
    read of a recovery scan. *)

val receive : t -> frame -> [ `Applied | `Duplicate | `Gap ]
(** Mirror-side append of a shipped frame, the record itself.
    Contiguous (its LSN is exactly the next expected) frames are
    appended and immediately count as flushed — a backup acknowledges
    only what would survive its own crash. Frames at an already-seen
    LSN are [`Duplicate]s (idempotent receive under a duplicating bus);
    frames beyond the next expected LSN are a [`Gap] and refused, so a
    mirror is always an exact prefix of its primary's device. *)

val adopt : t -> src:t -> unit
(** Make [t]'s device an exact copy of [src]'s: frames, LSN cursor,
    flushed frontier, discard count and crash base, shard tag and byte
    accounting. The frame records are shared, not copied. State
    transfer —
    used at promotion to seed the new primary's device from the
    best mirror, and to resync the surviving backups onto the new
    primary's timeline. *)

val corrupt_frame : t -> lsn:int -> (string -> string) -> bool
(** In-place bit-flip injection on a surviving frame (the recovery
    tests' silent-corruption fault); [false] if no frame has that
    LSN. *)
