(** Write admission: snapshot-isolation first-committer-wins, no-wait.

    A transaction may install a new version only if the record's current
    version was committed before the writer's snapshot. Otherwise —
    current version uncommitted, or committed after the writer began —
    the writer must abort (the sysbench-style workload retries with a
    fresh transaction). This also keeps every version chain ascending in
    creator timestamp, which the engines' binary-search lookup relies
    on. *)

val write_conflict : Txn_manager.t -> Txn.t -> current_vs:Timestamp.t -> bool
(** Asks the commit log whether the creator [current_vs] committed
    after the writer began; below the log's freeze horizon the frozen
    answer is "no". *)

val write_conflict_stamped :
  Txn_manager.t -> Txn.t -> current_vs:Timestamp.t -> current_cts:Timestamp.t -> bool
(** {!write_conflict} for an engine that stamps commit timestamps on
    its data (SIRO): [current_cts] is the creator's stamp, read instead
    of the commit log; [Timestamp.infinity] (unstamped) falls back to
    the log, which the engine keeps exact for every unstamped creator
    with a horizon floor. *)
