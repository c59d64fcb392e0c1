let write_conflict_stamped mgr (txn : Txn.t) ~current_vs ~current_cts =
  if current_vs = 0 || current_vs = txn.Txn.tid then false
  else if current_vs > txn.Txn.tid then true
  else if current_cts <> Timestamp.infinity then current_cts > txn.Txn.tid
  else
    (* No stamp: the creator is still in flight (no-wait), committed
       since the engine last stamped, or — for engines that keep no
       stamps — possibly long finished, where the log's frozen answer
       below its horizon ("committed before every live snapshot") is
       exact. An aborted creator's version is rolled back
       synchronously, so meeting one here would be an engine bug;
       either way the write fails. *)
    Commit_log.committed_after (Txn_manager.commit_log mgr) current_vs txn.Txn.tid

let write_conflict mgr txn ~current_vs =
  write_conflict_stamped mgr txn ~current_vs ~current_cts:Timestamp.infinity
