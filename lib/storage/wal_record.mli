(** Typed logical WAL records.

    The durable log is a sequence of framed records: transaction
    lifecycle events, in-row version inserts, SIRO relocations into
    off-row segments, segment state transitions (harden / second-prune
    drop / vCutter cut) and checkpoint brackets. Each frame is one
    compact binary record carrying its LSN, the simulated timestamp,
    its shard and a CRC-32 trailer, so recovery can detect torn or
    corrupted tails.

    [Relocate] frames carry the displaced version's {e precomputed}
    commit interval [(lo, hi)] (Definition 3.3's [I(v)]): replay must
    not depend on commit-log entries older than the checkpoint window. *)

type payload =
  | Txn_begin of { tid : int }
  | Txn_commit of { tid : int; cts : int }
  | Txn_abort of { tid : int; ats : int }
  | Version_insert of { tid : int; rid : int; value : int }
      (** An uncommitted in-row write (ARIES-style: logged at write
          time; it only takes effect at replay if [tid] commits). *)
  | Relocate of {
      rid : int;
      vs : int;
      ve : int;
      vs_time : int;
      ve_time : int;
      bytes : int;
      value : int;
      seg_id : int;
      cls : string;
      lo : int;
      hi : int;
    }  (** A displaced version inserted into off-row segment [seg_id]. *)
  | Seg_harden of { seg_id : int }
  | Seg_drop of { seg_id : int }  (** Second prune of a whole sealed segment. *)
  | Seg_cut of { seg_id : int }  (** vCutter cut of a hardened segment. *)
  | Ckpt_begin
  | Ckpt_end of { snapshot : Checkpoint.t option }
      (** See {!Checkpoint}. Recovery keeps a frame with [None] and
          skips it as an anchor. *)
  | Prepare of { tid : int; coord : int; shards : int list }
      (** Presumed-abort 2PC, participant side: this shard holds [tid]'s
          writes ready to commit and has ceded the decision to shard
          [coord]. [shards] is the full write-participant set. A prepare
          with no later local outcome is {e in-doubt}: recovery must
          resolve it from the coordinator's log (commit iff a durable
          {!Coord_commit} exists; otherwise presumed abort). *)
  | Coord_commit of { gid : int; cts : int; shards : int list }
      (** Coordinator decision record — the 2PC commit point. Forced to
          the coordinator shard's log {e before} any participant applies
          the commit locally. *)
  | Coord_abort of { gid : int }
      (** Coordinator abort decision. Informational under presumed
          abort (absence of a decision means abort) — logged unforced. *)
  | Ack of { gid : int; shard : int }
      (** Coordinator-side note that participant [shard] has durably
          applied the decision. *)
  | Forget of { gid : int }
      (** All participants acked — the coordinator drops [gid] from its
          in-doubt table and need answer no more queries about it. *)
  | Promote of { epoch : int; node : int }
      (** Replication fencing marker: node [node] took over as this
          shard's primary for replication epoch [epoch]. Forced to the
          adopted log at promotion, so the new timeline durably records
          where the old primary's authority ended — frames and votes
          from earlier epochs are refused from here on. *)
  | Rep_ack of { epoch : int; node : int; upto : int }
      (** Primary-side note that backup [node] has durably mirrored the
          log through LSN [upto] under epoch [epoch] — the ship/ack
          watermark trail. Logged unforced; replay ignores it. *)

type t = { lsn : int; at : int; shard : int; payload : payload }
(** [shard] namespaces the frame: each shard's pipeline logs into its
    own WAL with its own LSN space, and recovery refuses frames whose
    tag does not match the log being analyzed (cross-shard frame
    interleaving is corruption, not data). Shard 0 is the unsharded
    namespace. *)

val kind_name : payload -> string

val encode : t -> string
(** The frame, in {!Wire}'s primitives: one kind byte (the
    constructor's index in {!payload}, 0 to 16), then [lsn], [at] and
    [shard], then the payload's fields in the constructor's order,
    then the CRC-32 of every byte before it, 4 bytes little-endian.
    [cls] is a string, [shards] a list of ints, and a [Ckpt_end]
    snapshot a byte, 0 for [None] or 1 followed by the snapshot as
    {!Checkpoint.write} writes it. A durable log counts the frame's
    length in [Wal.total_bytes] and the [wal.bytes] metric; no
    simulated cost and no digest reads it. [test/ref_codec.ml] is a
    separately written reference. *)

val encode_with_bad_crc : t -> string
(** Same frame with a deliberately wrong checksum — the chaos harness
    uses it to fabricate torn tails that honest recovery must refuse.
    It differs from [encode] only in the trailer, xored with
    [0x5a5a5a5a]. *)

val decode : ?check_crc:bool -> string -> (t, string) result
(** Parse and verify one frame. [~check_crc:false] skips checksum
    verification — the sabotage knob recovery must {e not} use.

    A single-pass reader accepts exactly the layout {!encode} writes:
    a known kind byte, every int in its one spelling, every count
    within the bytes left, a snapshot flag of 0 or 1 and a snapshot
    {!Checkpoint.scan} reads, no byte left over before the trailer,
    and (under [~check_crc:true]) a matching checksum. Anything else
    is an [Error], so [decode (encode r) = Ok r] and a frame decodes
    only when it is [encode] of what it decodes to, up to its
    trailer. *)

val scan : check_crc:bool -> string -> t
(** {!decode} without the result: raises {!Wire.Malformed} where
    [decode] returns an [Error]. It reads through one cursor per
    domain, which lets go of the frame when the scan ends, so the only
    allocation is the record it returns — the read of a log scan. *)

val outcome_tid : string -> int option
(** The tid of a verified [Txn_commit] or [Txn_abort] frame; [None] for
    any other frame. Only a frame whose kind byte names one of those
    kinds is scanned, so a checkpoint's snapshot never is. *)
