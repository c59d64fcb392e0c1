type t = {
  mgr : Txn_manager.t;
  mutable epoch : int;
  mutable current : Zone_set.t;
  mutable broadcast_ts : Timestamp.t;
}

let create mgr =
  { mgr; epoch = 0; current = Zone_set.of_txn_manager mgr; broadcast_ts = 0 }

let broadcast t =
  let zones = Zone_set.of_txn_manager t.mgr in
  t.current <- zones;
  t.broadcast_ts <- Zone_set.now_ts zones;
  t.epoch <- t.epoch + 1;
  Metrics.bump "epoch.broadcasts";
  t.epoch

let current t = t.current
let epoch t = t.epoch
let snapshot t = (t.epoch, t.current, t.broadcast_ts)
