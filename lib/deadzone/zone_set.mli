(** Complete dead zones (Definition 3.4).

    Given the begin timestamps of the live transactions
    [t_b^1 < ... < t_b^m] and the current time [C^T], the complete set of
    dead zones is
    [{[-inf, t_b^1], [t_b^1, t_b^2], ..., [t_b^m, C^T]}]
    (just [{[-inf, C^T]}] when no transaction is live). A version whose
    visibility interval falls strictly inside any zone is dead
    (Theorem 3.5) — including *wide* zones between an old LLT and the
    oldest short transaction, which is what lets vDriver reclaim versions
    the classic oldest-active criterion cannot.

    A zone set is an immutable snapshot; vDriver refreshes it
    periodically rather than on every begin/commit (§3.3). Staleness is
    conservative: a stale snapshot lists extra (already finished)
    boundaries and an old [C^T], both of which only *reduce*
    prunability. *)

type t

val make : live:Timestamp.t list -> now_ts:Timestamp.t -> t
(** [live] is the begin timestamps of live transactions, in any order
    but with no duplicates; all must be [< now_ts].
    Raises [Invalid_argument] otherwise. *)

val of_txn_manager : Txn_manager.t -> t
(** Snapshot the live table right now. *)

val now_ts : t -> Timestamp.t
val boundary_count : t -> int
(** Number of live begin timestamps recorded. *)

val oldest_boundary : t -> Timestamp.t
(** The oldest live begin timestamp, or [now_ts] when no transaction is
    live — the classic GC horizon this snapshot implies. *)

val zones : t -> (Timestamp.t * Timestamp.t) list
(** Materialized zones in ascending order, using [min_int] for [-inf].
    Always non-empty; adjacent zones share their boundary. *)

val prunable : t -> vs:Timestamp.t -> ve:Timestamp.t -> bool
(** Theorem 3.5: does some zone contain [(vs, ve)] strictly
    ([z_s < vs] and [ve < z_e])? Requires [vs < ve]. *)

val covers : t -> lo:Timestamp.t -> hi:Timestamp.t -> bool
(** Segment-granularity form used by vCutter: is the whole range
    [\[lo, hi\]] (the segment's [v_min, v_max]) strictly inside one
    zone? Identical check to {!prunable}; named separately because the
    operands are segment descriptors, not a single version. *)
