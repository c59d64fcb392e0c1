(** vSorter (§3.3): placement of relocated versions.

    When SIRO-versioning pushes a displaced [v^{r,1->2}] off-row,
    vSorter classifies it, attempts the {e dead zone-based version
    pruning} (the 1st prune of Figure 15), and buffers survivors into
    the open segment of their class. A full segment is {e sealed} and
    ages inside vBuffer; the periodic {!sweep} applies the
    {e dead zone-based segment pruning} (the 2nd prune) at segment
    granularity — a sealed segment whose whole [\[v_min, v_max\]] range
    fell inside a dead zone is dropped without ever touching storage.
    Only memory pressure (or shutdown) hardens surviving sealed segments
    into the version store, where vCutter takes over. *)

type outcome =
  | Pruned_first of Vclass.t  (** dead on arrival; class recorded for the breakdown *)
  | Buffered of Vclass.t

type sweep_result = {
  segments_dropped : int;  (** sealed segments dead in their entirety *)
  versions_pruned : int;  (** versions those segments contained (2nd prune) *)
  segments_flushed : int;  (** sealed segments hardened under memory pressure *)
  versions_stored : int;  (** versions that reached the version store *)
}

val relocate :
  State.t -> Version.t -> lo:Timestamp.t -> hi:Timestamp.t -> now:Clock.time -> outcome
(** Process one displaced version whose creator and closer committed at
    [lo] and [hi] (its commit interval, read from the SIRO slot's
    stamps — never from the commit log, which may have dropped them).
    May seal a full segment as a side effect (sealing never blocks on
    pruning — that is {!sweep}'s job). Raises [Invalid_argument] if
    either bound is [Timestamp.infinity]. *)

val drop_dead_segment : State.t -> Segment.t -> now:Clock.time -> int
(** Discard a sealed segment that is dead in its entirety: every live
    node is removed from its chain, audited and counted into the 2nd
    prune, and the segment is dropped (with its WAL record). Returns the
    number of versions pruned. The caller owns removing the segment from
    [sealed] — exported so pluggable GC backends reuse the exact seed
    reclaim path (audits, stats, WAL) instead of reimplementing it. *)

val harden_segment : State.t -> Segment.t -> now:Clock.time -> int
(** Flush one (already popped) sealed segment into the version store,
    counting its versions as stored (with WAL record, metrics, trace).
    Returns the number of versions stored. Exported for GC backends. *)

val sweep : State.t -> now:Clock.time -> sweep_result
(** One vBuffer maintenance pass: 2nd-prune sealed segments against
    fresh dead zones, then flush the oldest survivors while the buffer
    exceeds its byte budget. *)

val flush_all : State.t -> now:Clock.time -> sweep_result
(** Shutdown/settlement: seal every open segment, sweep, and harden all
    remaining sealed segments so every relocated version is accounted
    as pruned or stored. *)
