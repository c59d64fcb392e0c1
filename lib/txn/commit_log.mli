(** Commit log — the analogue of PostgreSQL's [pg_xact] (§4.2).

    Records the final status of every finished transaction so that loser
    transactions can be identified directly, which is the property that
    lets vDriver drop the engine's duplicate undo copies once the owner
    commits.

    Stored as a dense int array indexed by tid, one tagged cell per
    transaction; lookups allocate nothing except the [option]s of
    {!status} and {!commit_ts_of}. *)

type status = Committed_at of Timestamp.t | Aborted_at of Timestamp.t
type t

val create : unit -> t
val record : t -> tid:Timestamp.t -> status -> unit
(** Raises [Invalid_argument] if [tid] already has a status, if [tid] is
    negative, or if the status timestamp does not fit in 61 bits. *)

val override : t -> tid:Timestamp.t -> status -> unit
(** Replace (or create) a status unconditionally. Only the replica
    promotion path may use this: a primary killed after deciding
    locally but before quorum-replicating leaves a stale [Committed_at]
    entry that the promoted timeline — on which the transaction never
    happened — must flip back to aborted. Raises [Invalid_argument] on
    the arguments [record] rejects, a duplicate aside. *)

val status : t -> Timestamp.t -> status option
(** [None] for a tid with no status, including any tid never recorded
    ([Timestamp.infinity], negative tids). *)

val mem : t -> Timestamp.t -> bool
(** Whether the tid has a recorded status. *)

val is_committed : t -> Timestamp.t -> bool
(** Whether the transaction with this begin timestamp committed. *)

val commit_ts_of : t -> Timestamp.t -> Timestamp.t option
(** The commit timestamp of the transaction that began at the given
    timestamp; [None] if it aborted or is still live. *)

val commit_ts : t -> Timestamp.t -> Timestamp.t
(** [commit_ts_of] without the option: [Timestamp.infinity] if the
    transaction aborted or is still live. *)

val finished : t -> int
(** Number of transactions with a recorded status. *)

val reset : t -> unit
(** Forget everything — the restart path rebuilds the log from the
    recovered WAL rather than trusting lost in-memory state. *)

val entries : t -> (Timestamp.t * status) list
(** All recorded outcomes, in begin-timestamp order. *)

val fold_from : t -> floor:Timestamp.t -> (Timestamp.t -> status -> 'a -> 'a) -> 'a -> 'a
(** [fold_from t ~floor f init] folds [f] over the recorded outcomes
    whose tid is at least [floor], in tid order — the entries of
    {!entries} from [floor] on, at a cost of the tids in
    [[floor, highest recorded tid]] only. A checkpoint's commit-log
    window. *)
