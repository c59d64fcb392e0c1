let () =
  Alcotest.run "vdriver-repro"
    (List.concat [ Test_util.suites; Test_sim.suites; Test_txn.suites; Test_horizon.suites; Test_deadzone.suites; Test_version.suites; Test_storage.suites; Test_core.suites; Test_core2.suites; Test_engines.suites; Test_workload.suites; Test_fault.suites; Test_governor.suites; Test_model.suites; Test_more.suites; Test_obs.suites; Test_recovery.suites; Test_liveness.suites; Test_differential.suites; Test_hammer.suites; Test_shard.suites; Test_gc.suites; Test_net.suites; Test_replica.suites; Test_digest.suites; Test_sabotage.suites ])
