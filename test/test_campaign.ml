(* Fault plans as values and the chaos campaigns built from them: one
   plan drives any number of runs to the same schedule (each run polls
   a cursor of its own), and the digests and whole reports of five
   short campaigns with the CI soak flags are pinned byte for byte, so
   a change to the campaign assembly, the plan or either runner shows
   up here. They equal the counters `chaos` prints for the same flags;
   sampling every 50 ms instead of every second moved only their
   [peak_space] and [peak_chain] rows. *)

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

(* The whole printed report (counters, faults, checks, violations),
   for pins that must hold byte for byte without spelling it out. *)
let report_md5 report = Digest.to_hex (Digest.string (Fault_report.to_string report))

let test_shard_soak_pinned () =
  (* `chaos --seed 42 --campaigns 1 -d 1 --shards 4 --crash-points 3
     --crash-steps 4`, the CI shard soak's flags on a shorter run. *)
  let cfg =
    Campaign.sharded ~crash_points:3 ~crash_steps:4 ~seed ~duration:1. ~ckpt_ms:250 ~shards:4 ()
  in
  let r = Shard_runner.run cfg in
  check_bool "crashes happened" true (r.Shard_runner.crashes > 0);
  check_str "digest pinned"
    "{\"mode\":\"sim\",\"shards\":4,\"commits\":26552,\"conflicts\":188,\"cross_commits\":7995,\"violations\":0,\"peak_space\":1656832,\"throughput\":26552.0}"
    (Jsonx.to_string (Shard_runner.digest_to_json r.Shard_runner.digest));
  check_str "report pinned" "39295093d99491ea91c9a46c01cff62a" (report_md5 r.Shard_runner.report)

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
    ("{\"mode\":\"sim\",\"domains\":1,\"gc_backend\":\"vcutter\",\"commits\":28796,\"conflicts\":215,\"llt_reads\":23897,\"retries\":13,\"give_ups\":1,\"sheds\":0,\"wal_errors\":20,\"faults_injected\":74,\"invariant_violations\":0,\"peak_space\":876288,\"final_space\":158464,\"peak_chain\":185,\"prune_relocated\":54946,\"prune_in_flight\":0,\"prune_completeness\":1.0,\"max_holes\":0,\"holey_chains\":0,\"avg_throughput\":28796.0,\"latency_p50_us\":269,\"latency_p99_us\":509,\"chain_p50\":2,\"chain_p99\":2,"
     ^ "\"recovery\":{\"crashes\":6,\"replayed\":10942,\"versions\":597,\"truncated\":6,\"losers\":5},\"gc\":{\"vcutter.shortfalls\":0,\"vcutter.dead_after\":0}}")
    (Jsonx.to_string (Run_digest.to_json r.Runner.digest));
  check_str "report pinned" "b259b9807a207599621f1600192dbad1" (report_md5 r.Runner.faults)

let test_failover_soak_pinned () =
  (* `chaos --seed 42 --campaigns 1 -d 0.5 --shards 2 --replicas 2
     --kill-nodes` on the partition soak's lossy fabric: node kills,
     failovers and the net resolver in one campaign. *)
  let cfg =
    Campaign.sharded ~net:(0.1, 0.05, 150, 1) ~replicas:2 ~kill_nodes:true ~seed ~duration:0.5
      ~ckpt_ms:250 ~shards:2 ()
  in
  let r = Shard_runner.run cfg in
  (match r.Shard_runner.digest.Shard_runner.d_repl with
  | Some rd -> check_bool "the plan killed nodes" true (rd.Shard_runner.rd_kills > 0)
  | None -> Alcotest.fail "replicated digest block missing");
  check_bool "the fabric dropped frames" true
    (match r.Shard_runner.digest.Shard_runner.d_net with
    | Some n -> n.Shard_runner.nd_dropped > 0
    | None -> false);
  check_str "digest pinned"
    "{\"mode\":\"sim\",\"shards\":2,\"commits\":7122,\"conflicts\":98,\"cross_commits\":2038,\"violations\":0,\"peak_space\":498176,\"throughput\":14244.0,\"net\":{\"sent\":23690,\"dropped\":2279,\"retried\":3686,\"net_aborts\":43,\"indoubt_max_us\":54966},\"repl\":{\"replicas\":2,\"quorum\":2,\"kills\":1,\"revives\":1,\"promotions\":1,\"fencings\":0,\"stale_acks\":0,\"restarts\":1,\"failover_lag_max_us\":52000}}"
    (Jsonx.to_string (Shard_runner.digest_to_json r.Shard_runner.digest));
  check_str "report pinned" "3eefe834895a14aa8fb30397d5679df5" (report_md5 r.Shard_runner.report)

let test_stall_soak_pinned () =
  (* `chaos --seed 42 --campaigns 1 -d 1 --stalls --zombie-llts`, the CI
     stall soak's flags on a shorter run. *)
  let engine = Campaign.engine ~durable:false (List.assoc "pg-vdriver" Engine_table.vdriver) in
  let watchdog =
    {
      Watchdog.default_config with
      Watchdog.check_period = Clock.ms 5;
      stall_timeout = Clock.ms 20;
      escalation_cooldown = Clock.ms 10;
    }
  in
  let faults = Campaign.plan ~stalls:true ~zombies:true ~crash_points:0 ~seed () in
  let r = Runner.run ~engine ~faults ~watchdog (Campaign.config ~seed ~duration:1. ~ckpt_ms:250) in
  check_bool "the watchdog escalated" true (r.Runner.watchdog_escalations > 0);
  check_str "digest pinned"
    "{\"mode\":\"sim\",\"domains\":1,\"gc_backend\":\"vcutter\",\"commits\":28721,\"conflicts\":193,\"llt_reads\":27598,\"retries\":13,\"give_ups\":1,\"sheds\":0,\"wal_errors\":16,\"faults_injected\":64,\"invariant_violations\":0,\"peak_space\":783872,\"final_space\":146176,\"peak_chain\":163,\"prune_relocated\":56363,\"prune_in_flight\":0,\"prune_completeness\":1.0,\"max_holes\":0,\"holey_chains\":0,\"avg_throughput\":28721.0,\"latency_p50_us\":269,\"latency_p99_us\":519,\"chain_p50\":2,\"chain_p99\":2,\"max_reclamation_lag_us\":5000,\"lag_samples\":27,\"watchdog\":{\"escalations\":1,\"nudges\":1,\"zombie_cancels\":0,\"max_stall_us\":25000},\"gc\":{\"vcutter.shortfalls\":0,\"vcutter.dead_after\":0}}"
    (Jsonx.to_string (Run_digest.to_json r.Runner.digest));
  check_str "report pinned" "8068b2f8bcacc7ed33981f63114cc3b0" (report_md5 r.Runner.faults)

let test_overload_soak_pinned () =
  (* `chaos --seed 42 --campaigns 1 -d 2 --quota 786432`, the CI
     overload soak's flags on a shorter run. *)
  let engine =
    Campaign.engine ~quota:786432 ~durable:false (List.assoc "pg-vdriver" Engine_table.vdriver)
  in
  let faults = Campaign.plan ~crash_points:0 ~seed () in
  let r = Runner.run ~engine ~faults (Campaign.config ~seed ~duration:2. ~ckpt_ms:250) in
  check_bool "the governor shed" true (r.Runner.sheds > 0);
  check_str "digest pinned"
    "{\"mode\":\"sim\",\"domains\":1,\"gc_backend\":\"vcutter\",\"commits\":56996,\"conflicts\":411,\"llt_reads\":36618,\"retries\":23,\"give_ups\":3,\"sheds\":4,\"wal_errors\":128,\"faults_injected\":120,\"invariant_violations\":0,\"peak_space\":671232,\"final_space\":43520,\"peak_chain\":149,\"prune_relocated\":112716,\"prune_in_flight\":0,\"prune_completeness\":1.0,\"max_holes\":0,\"holey_chains\":0,\"avg_throughput\":28498.0,\"latency_p50_us\":269,\"latency_p99_us\":519,\"chain_p50\":2,\"chain_p99\":2,\"gc\":{\"vcutter.shortfalls\":0,\"vcutter.dead_after\":0}}"
    (Jsonx.to_string (Run_digest.to_json r.Runner.digest));
  check_str "report pinned" "d06ddc406c4eddf1b8b8c8908a54fa92" (report_md5 r.Runner.faults)

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
        Alcotest.test_case "failover-soak campaign digest" `Slow test_failover_soak_pinned;
        Alcotest.test_case "stall-soak campaign digest" `Slow test_stall_soak_pinned;
        Alcotest.test_case "overload-soak campaign digest" `Slow test_overload_soak_pinned;
      ] );
  ]
