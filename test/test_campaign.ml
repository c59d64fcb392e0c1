(* Fault plans as values and the chaos campaigns built from them: one
   plan drives any number of runs to the same schedule (each run polls
   a cursor of its own), and the digests of two short campaigns with
   the CI soak flags are pinned byte for byte, so a change to the
   campaign assembly, the plan or either runner shows up here. The
   pinned values equal the counters `chaos` printed for the same flags
   before the plan became a value. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* -------------------------------------------------------------------- *)
(* One plan, two runs *)

let replicated_cfg faults =
  let base =
    {
      Exp_config.default with
      Exp_config.name = "plan-reuse";
      seed = 13;
      duration_s = 0.3;
      workers = 4;
      reads_per_txn = 2;
      writes_per_txn = 2;
      schema = { Schema.default with Schema.tables = 2; rows_per_table = 100; record_bytes = 64 };
      llts = [ { Exp_config.start_s = 0.05; duration_s = 0.15; count = 1 } ];
      gc_period = Clock.ms 5;
      sample_period_s = 0.05;
      ckpt_period_s = 0.1;
    }
  in
  { (Shard_runner.default ~shards:2 base) with Shard_runner.cross_pct = 40; replicas = 2; faults }

let test_sharded_plan_reused () =
  let cfg = replicated_cfg (Fault_plan.random_nodes ~seed:13 ()) in
  let run () =
    let r = Shard_runner.run cfg in
    (match r.Shard_runner.digest.Shard_runner.d_repl with
    | Some rd -> check_bool "the plan killed nodes" true (rd.Shard_runner.rd_kills > 0)
    | None -> Alcotest.fail "replicated digest block missing");
    Jsonx.to_string (Shard_runner.digest_to_json r.Shard_runner.digest)
  in
  let first = run () in
  check_str "second run, same digest" first (run ())

let test_unsharded_plan_reused () =
  let cfg =
    {
      Exp_config.default with
      Exp_config.name = "plan-reuse";
      seed = 5;
      duration_s = 0.5;
      workers = 4;
      schema = { Schema.default with Schema.tables = 2; rows_per_table = 200 };
      llts = [ { Exp_config.start_s = 0.1; duration_s = 0.2; count = 1 } ];
      sample_period_s = 0.1;
      gc_period = Clock.ms 5;
    }
  in
  let faults = Fault_plan.random ~seed:77 () in
  let engine = List.assoc "pg-vdriver" Engine_table.vdriver State.default_config in
  let run () =
    let r = Runner.run ~engine ~faults cfg in
    check_bool "the plan injected faults" true
      (Fault_report.faults_injected r.Runner.faults <> []);
    Jsonx.to_string (Run_digest.to_json r.Runner.digest)
  in
  let first = run () in
  check_str "second run, same digest" first (run ())

(* -------------------------------------------------------------------- *)
(* A plan kind a runner does not implement is refused, not ignored *)

let raises_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

let test_unimplemented_kinds_refused () =
  let unreplicated = { (replicated_cfg Fault_plan.none) with Shard_runner.replicas = 0 } in
  raises_invalid "process faults on the sharded runner" (fun () ->
      Shard_runner.run { unreplicated with Shard_runner.faults = Fault_plan.random ~seed:3 () });
  raises_invalid "a crash event on the sharded runner" (fun () ->
      Shard_runner.run
        {
          unreplicated with
          Shard_runner.faults =
            Fault_plan.create ~events:[ { Fault_plan.at = Clock.ms 10; action = Crash } ] ();
        });
  let engine = List.assoc "pg-vdriver" Engine_table.vdriver State.default_config in
  raises_invalid "node faults on the unsharded runner" (fun () ->
      Runner.run ~engine ~faults:(Fault_plan.random_nodes ~seed:3 ())
        { Exp_config.default with Exp_config.duration_s = 0.1 });
  raises_invalid "node kills with a crash schedule" (fun () ->
      Campaign.sharded ~replicas:2 ~kill_nodes:true ~crash_points:2 ~seed:3 ~duration:0.1
        ~ckpt_ms:250 ~shards:2 ())

(* -------------------------------------------------------------------- *)
(* The chaos campaigns, pinned *)

let seed = List.hd (Campaign.seeds ~seed:42 1)

let test_shard_soak_pinned () =
  (* `chaos --seed 42 --campaigns 1 -d 1 --shards 4 --crash-points 3
     --crash-steps 4`, the CI shard soak's flags on a shorter run. *)
  let cfg =
    Campaign.sharded ~crash_points:3 ~crash_steps:4 ~seed ~duration:1. ~ckpt_ms:250 ~shards:4 ()
  in
  let r = Shard_runner.run cfg in
  check_bool "crashes happened" true (r.Shard_runner.crashes > 0);
  check_str "digest pinned"
    "{\"mode\":\"sim\",\"shards\":4,\"commits\":26552,\"conflicts\":188,\"cross_commits\":7995,\"violations\":0,\"peak_space\":462080,\"throughput\":26552.0}"
    (Jsonx.to_string (Shard_runner.digest_to_json r.Shard_runner.digest))

let test_crash_soak_pinned () =
  (* `chaos --seed 42 --campaigns 1 -d 1 --crash-points 6`, the CI
     crash soak's flags on a shorter run. *)
  let engine =
    Campaign.engine ~durable:true (List.assoc "pg-vdriver" Engine_table.vdriver)
  in
  let faults = Campaign.plan ~crash_points:6 ~seed () in
  let r = Runner.run ~engine ~faults (Campaign.config ~seed ~duration:1. ~ckpt_ms:250) in
  check_bool "crashes happened" true (r.Runner.crashes > 0);
  check_str "digest pinned"
    ("{\"mode\":\"sim\",\"domains\":1,\"gc_backend\":\"vcutter\",\"commits\":28796,\"conflicts\":215,\"llt_reads\":23897,\"retries\":13,\"give_ups\":1,\"sheds\":0,\"wal_errors\":20,\"faults_injected\":74,\"invariant_violations\":0,\"peak_space\":158464,\"final_space\":158464,\"peak_chain\":44,\"prune_relocated\":54946,\"prune_in_flight\":0,\"prune_completeness\":1.0,\"max_holes\":0,\"holey_chains\":0,\"avg_throughput\":28796.0,\"latency_p50_us\":269,\"latency_p99_us\":509,\"chain_p50\":2,\"chain_p99\":2,"
     ^ "\"recovery\":{\"crashes\":6,\"replayed\":10942,\"versions\":597,\"truncated\":6,\"losers\":5},\"gc\":{\"vcutter.shortfalls\":0,\"vcutter.dead_after\":0}}")
    (Jsonx.to_string (Run_digest.to_json r.Runner.digest))

let suites =
  [
    ( "campaign.plan",
      [
        Alcotest.test_case "one node-fault plan, two sharded runs" `Quick test_sharded_plan_reused;
        Alcotest.test_case "one random plan, two runs" `Quick test_unsharded_plan_reused;
        Alcotest.test_case "unimplemented kinds refused" `Quick test_unimplemented_kinds_refused;
      ] );
    ( "campaign.pin",
      [
        Alcotest.test_case "shard-soak campaign digest" `Slow test_shard_soak_pinned;
        Alcotest.test_case "crash-soak campaign digest" `Slow test_crash_soak_pinned;
      ] );
  ]
