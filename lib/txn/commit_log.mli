(** Commit log — the analogue of PostgreSQL's [pg_xact] (§4.2).

    Records the final status of every finished transaction so that loser
    transactions can be identified directly, which is the property that
    lets vDriver drop the engine's duplicate undo copies once the owner
    commits.

    Stored in fixed pages of int cells indexed by tid (one tagged cell
    per transaction) under a small page directory: a page is allocated
    on its first write and nothing is ever copied as the log grows.
    Lookups allocate nothing except the [option]s of {!status} and
    {!commit_ts_of}.

    {1 Freeze horizon}

    {!advance_horizon} drops every page that lies wholly below a tid, as
    PostgreSQL truncates [pg_xact] behind [VACUUM FREEZE]. The caller
    ({!Txn_manager}) only moves the horizon to a tid below which every
    transaction has finished with an outcome timestamp below every live
    begin timestamp. Below the horizon the log answers two ways:
    - the boolean queries ({!mem}, {!is_committed}, {!committed_after})
      give the {e frozen} answer, "finished and committed before every
      live snapshot". That is exact for the creator of any version that
      survives, because an aborted creator's versions are rolled back
      before its abort is recorded;
    - the exact queries ({!status}, {!commit_ts}, {!commit_ts_of}), and
      {!record}, {!override} and {!fold_from}, raise [Invalid_argument].
      A caller that needs an old creator's commit timestamp reads the
      stamp carried with the data instead (the SIRO slot's, the
      relocated version's [(lo, hi)], the checkpoint row's [cts]), or
      registers a floor with {!Txn_manager.register_floor}.

    Negative tids are never recorded and never raise: they have no
    status. *)

type status = Committed_at of Timestamp.t | Aborted_at of Timestamp.t
type t

val page_cells : int
(** Cells per page: 4096 (32 KiB, which the runtime allocates straight
    on the major heap; a short run pays for at most one partly used
    page). The horizon is always a multiple of it. *)

val create : unit -> t

val record : t -> tid:Timestamp.t -> status -> unit
(** Raises [Invalid_argument] if [tid] already has a status, if [tid] is
    negative or below the horizon, or if the status timestamp does not
    fit in 61 bits. *)

val override : t -> tid:Timestamp.t -> status -> unit
(** Replace (or create) a status unconditionally. Only the replica
    promotion path may use this: a primary killed after deciding
    locally but before quorum-replicating leaves a stale [Committed_at]
    entry that the promoted timeline — on which the transaction never
    happened — must flip back to aborted. Raises [Invalid_argument] on
    the arguments [record] rejects, a duplicate aside. *)

val status : t -> Timestamp.t -> status option
(** [None] for a tid with no status, including any tid never recorded
    ([Timestamp.infinity], negative tids). Raises [Invalid_argument]
    below the horizon. *)

val mem : t -> Timestamp.t -> bool
(** Whether the tid has a recorded status; [true] below the horizon
    (every tid there has finished). *)

val is_committed : t -> Timestamp.t -> bool
(** Whether the transaction with this begin timestamp committed; the
    frozen answer [true] below the horizon. *)

val committed_after : t -> Timestamp.t -> Timestamp.t -> bool
(** [committed_after t tid ts]: is the transaction that began at [tid]
    not committed, or committed at a timestamp after [ts]? The
    write-conflict test of first-committer-wins. The frozen answer
    [false] below the horizon. *)

val commit_ts_of : t -> Timestamp.t -> Timestamp.t option
(** The commit timestamp of the transaction that began at the given
    timestamp; [None] if it aborted or is still live. Raises
    [Invalid_argument] below the horizon. *)

val commit_ts : t -> Timestamp.t -> Timestamp.t
(** [commit_ts_of] without the option: [Timestamp.infinity] if the
    transaction aborted or is still live. Raises [Invalid_argument]
    below the horizon. *)

val finished : t -> int
(** Number of statuses recorded since creation or the last {!reset},
    dropped pages included. *)

val horizon : t -> Timestamp.t
(** The freeze horizon: a page boundary, 0 until the first advance.
    Every tid below it gets the frozen answer. *)

val advance_horizon : t -> Timestamp.t -> unit
(** [advance_horizon t tid] drops every page wholly below [tid] and
    moves the horizon to the first page kept (never backwards). The
    caller guarantees that every tid below [tid] finished with an
    outcome timestamp below every live begin timestamp, and that no
    surviving version has an aborted creator below it. *)

val retained_cells : t -> int
(** Cells held in allocated pages — the log's footprint in words. *)

val reset : t -> unit
(** Forget everything, horizon included — the restart path rebuilds
    the log from the recovered WAL rather than trusting lost in-memory
    state. *)

val entries : t -> (Timestamp.t * status) list
(** All recorded outcomes at or above the horizon, in begin-timestamp
    order. *)

val fold_from : t -> floor:Timestamp.t -> (Timestamp.t -> status -> 'a -> 'a) -> 'a -> 'a
(** [fold_from t ~floor f init] folds [f] over the recorded outcomes
    whose tid is at least [floor], in tid order — the entries of
    {!entries} from [floor] on, at a cost of the tids in
    [[floor, highest recorded tid]] only. A checkpoint's commit-log
    window. Raises [Invalid_argument] if [floor] is below the
    horizon. *)
