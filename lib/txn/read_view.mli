(** Read views (MVCC snapshots expressed over begin timestamps).

    Engines that embed the *begin* timestamp of the updater in each
    version (MySQL, PostgreSQL) cannot compare commit times directly;
    instead each transaction captures the set of transactions active when
    it began. A creator transaction is "committed in this view" iff its
    begin timestamp precedes the view's horizon and is not among the
    actives — exactly the §3.1 formulation. *)

type t = {
  creator : Timestamp.t;  (** begin ts of the transaction owning the view *)
  high : Timestamp.t;  (** first ts assigned after view creation; ts >= high began later *)
  actives : Timestamp.t array;  (** sorted begin ts of live txns at creation (excluding creator) *)
}

val make : creator:Timestamp.t -> actives:Timestamp.t list -> high:Timestamp.t -> t
(** [actives] need not be sorted; it must not contain [creator] and all
    entries must be [< high]. Raises [Invalid_argument] otherwise. *)

val of_sorted : creator:Timestamp.t -> actives:Timestamp.t array -> high:Timestamp.t -> t
(** [make] over an array that is already strictly increasing, which
    the view then owns: no copy and no sort. Raises [Invalid_argument]
    on the arguments [make] rejects and on an array that is not
    strictly increasing. *)

val committed_before : t -> Timestamp.t -> bool
(** [committed_before view ts]: had the transaction that began at [ts]
    already committed when this view was created? The creator itself
    counts as visible (its own writes). [Timestamp.infinity] is never
    committed. *)

val snapshot_read : t -> vs:Timestamp.t -> ve:Timestamp.t -> bool
(** Is a version whose creator began at [vs] and whose successor's
    creator began at [ve] ([Timestamp.infinity] if none) the snapshot
    read of its record for this view? Per §3.1: creator committed before
    the view, successor not. *)

val oldest_visible_horizon : t -> Timestamp.t
(** Every version whose [ve] is below this is invisible to the view —
    the classic "oldest active" purge criterion derives from the minimum
    of this over live views. *)
