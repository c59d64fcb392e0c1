let write_conflict mgr (txn : Txn.t) ~current_vs =
  if current_vs = 0 || current_vs = txn.Txn.tid then false
  else if current_vs > txn.Txn.tid then true
  else
    (* [Timestamp.infinity] when the creator is still in flight (no-wait)
       or aborted: an aborted creator's version is rolled back
       synchronously, so meeting one here would be an engine bug. Either
       way the write fails. *)
    Commit_log.commit_ts (Txn_manager.commit_log mgr) current_vs > txn.Txn.tid
