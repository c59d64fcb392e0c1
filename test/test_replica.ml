(* Replication-layer tests (DESIGN §4j): exact-prefix mirror shipping,
   deterministic lease-based promotion, the one-dead-node rule, honest
   vs primaryless revival semantics, the no-committed-loss oracle as a
   unit, the double-restart idempotence property (satellite), and the
   campaign-level acceptance gates — honest node-kill campaigns clean
   in Sim and Domains with promotion/fencing gauges surfaced, and the
   unreplicated digest keeping its pre-replication bytes. The failover
   sabotages are rows of the sabotage registry (test_sabotage). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_schema =
  { Schema.default with Schema.tables = 2; rows_per_table = 100; record_bytes = 64 }

let mk ?(shards = 2) ?(replicas = 2) ?quorum () =
  let g = Shard_group.create ~shards small_schema in
  let r = Replica.create ?quorum ~replicas ~wals:(Shard_group.wals g) () in
  Shard_group.attach_replicas g r;
  (g, r)

(* One single-shard committed write on [sid]'s keyspace. *)
let commit_on g ~sid ~payload ~now =
  let txn, t = Shard_group.begin_txn g ~now in
  (match Shard_group.write g txn ~rid:sid ~payload ~now:t with
  | Engine.Committed_path _ -> ()
  | _ -> Alcotest.fail "write refused");
  Shard_group.commit g txn ~now:t

let gwal g ~sid = List.assoc sid (Shard_group.wals g)

(* -------------------------------------------------------------------- *)
(* Mirror shipping *)

let test_mirror_exact_prefix () =
  let g, r = mk () in
  let now = ref (Clock.ms 1) in
  for i = 1 to 20 do
    now := commit_on g ~sid:(i mod 2) ~payload:i ~now:!now
  done;
  (* Commit acks gate on quorum, and the passthrough fabric ships
     synchronously: every live backup holds an exact prefix of the
     device covering every committed frame (only the ack-journal tail
     the ship itself appends may trail the mirror). *)
  List.iter
    (fun sid ->
      let dev = gwal g ~sid in
      let last_commit =
        List.fold_left
          (fun acc (lsn, repr) ->
            match Wal_record.decode repr with
            | Ok { Wal_record.payload = Wal_record.Txn_commit _; _ } -> max acc lsn
            | _ -> acc)
          0 (Wal.frames dev)
      in
      check_bool "workload committed here" true (last_commit > 0);
      for node = 1 to 2 do
        let m = Replica.mirror r ~sid ~node in
        check_bool "mirror covers every commit" true (Wal.max_lsn m >= last_commit);
        let mframes = Wal.frames m in
        let dprefix =
          List.filteri (fun i _ -> i < List.length mframes) (Wal.frames dev)
        in
        Alcotest.(check (list (pair int string)))
          "mirror is an exact device prefix" dprefix mframes
      done)
    [ 0; 1 ]

(* -------------------------------------------------------------------- *)
(* Kill, lease expiry, deterministic promotion *)

let run_kill_promote () =
  let g, r = mk () in
  let now = ref (Clock.ms 1) in
  for i = 1 to 10 do
    now := commit_on g ~sid:(i mod 2) ~payload:i ~now:!now
  done;
  check_bool "killed" true (Replica.kill r ~sid:0 ~node:0 ~now:!now);
  check_bool "shard down" false (Shard_group.shard_is_up g 0);
  check_bool "primaryless" true (Replica.primary r ~sid:0 = None);
  (* Reads on the dead shard are turned away, not wedged. *)
  let txn, t = Shard_group.begin_txn g ~now:!now in
  (try
     ignore (Shard_group.read g txn ~rid:0 ~now:t);
     Alcotest.fail "read on dead shard must raise"
   with Shard_group.Shard_down 0 -> ());
  ignore (Shard_group.abort g txn ~now:t);
  (* The other shard keeps committing while the victim waits. *)
  now := commit_on g ~sid:1 ~payload:99 ~now:t;
  (* Sweep inside the lease: no promotion yet. *)
  Replica.sweep r ~now:!now;
  check_bool "lease still fencing" true (Replica.primary r ~sid:0 = None);
  (* Sweep past the lease: deterministic failover. *)
  let after = Clock.ms 80 in
  Replica.sweep r ~now:after;
  (g, r, after)

let test_kill_then_promotion () =
  let g, r, after = run_kill_promote () in
  check_bool "promoted" true (Replica.primary r ~sid:0 <> None);
  check_bool "shard back up" true (Shard_group.shard_is_up g 0);
  check_int "epoch fenced up" 1 (Replica.epoch r ~sid:0);
  check_int "one promotion" 1 (Replica.promotions r ~sid:0);
  (match Replica.lags r with
  | [ (0, lag) ] -> check_bool "lag spans kill to promotion" true (lag > 0 && lag < after)
  | l -> Alcotest.failf "expected one completed failover, got %d" (List.length l));
  (* The promoted timeline serves new work. *)
  ignore (commit_on g ~sid:0 ~payload:1000 ~now:(after + Clock.ms 1))

let test_promotion_deterministic () =
  let _, r1, _ = run_kill_promote () in
  let _, r2, _ = run_kill_promote () in
  check_bool "same successor both runs" true
    (Replica.primary r1 ~sid:0 = Replica.primary r2 ~sid:0);
  check_int "same epoch both runs" (Replica.epoch r1 ~sid:0) (Replica.epoch r2 ~sid:0)

let test_one_dead_node_per_group () =
  let _, r = mk () in
  check_bool "first kill lands" true (Replica.kill r ~sid:0 ~node:0 ~now:(Clock.ms 1));
  check_bool "second kill refused" false (Replica.kill r ~sid:0 ~node:1 ~now:(Clock.ms 2));
  check_bool "dead twice refused" false (Replica.kill r ~sid:0 ~node:0 ~now:(Clock.ms 3));
  Alcotest.(check (list (pair int int))) "one dead node" [ (0, 0) ] (Replica.dead_nodes r)

(* -------------------------------------------------------------------- *)
(* Revival semantics *)

let test_revive_after_failover_state_transfers () =
  let g, r, after = run_kill_promote () in
  let now = ref (after + Clock.ms 1) in
  for i = 1 to 5 do
    now := commit_on g ~sid:0 ~payload:(200 + i) ~now:!now
  done;
  check_bool "revived" true (Replica.revive r ~sid:0 ~node:0 ~now:!now);
  check_bool "alive again" true (Replica.node_alive r ~sid:0 ~node:0);
  (* Honest revival under a live successor state-transfers: the
     rejoining node is a caught-up backup on the promoted timeline. *)
  check_int "caught up to the promoted device"
    (Wal.max_lsn (gwal g ~sid:0))
    (Wal.max_lsn (Replica.mirror r ~sid:0 ~node:0));
  Alcotest.(check (list (pair int int))) "no dead nodes left" [] (Replica.dead_nodes r)

let test_primaryless_revive_keeps_coffin_and_wins () =
  let g, r = mk () in
  let now = ref (Clock.ms 1) in
  for i = 1 to 10 do
    now := commit_on g ~sid:0 ~payload:i ~now:!now
  done;
  let lsn_at_kill = Wal.max_lsn (gwal g ~sid:0) in
  check_bool "killed" true (Replica.kill r ~sid:0 ~node:0 ~now:!now);
  (* Fast reboot before the lease expires: no successor exists, so the
     node rejoins with its own coffin — the full timeline it held as
     primary — rather than state-transferring from a detached device. *)
  check_bool "revived primaryless" true
    (Replica.revive r ~sid:0 ~node:0 ~now:(!now + Clock.ms 5));
  check_int "coffin kept, not reset"
    lsn_at_kill
    (Wal.max_lsn (Replica.mirror r ~sid:0 ~node:0));
  (* Candidacy: the rebooted ex-primary is the highest-caught-up live
     node, so the failover re-elects its timeline — nothing acked is
     lost even though the lease had to run out first. *)
  Replica.sweep r ~now:(Clock.ms 80);
  check_bool "ex-primary re-elected" true (Replica.primary r ~sid:0 = Some 0);
  check_int "under a fenced epoch" 1 (Replica.epoch r ~sid:0)

(* -------------------------------------------------------------------- *)
(* The loss oracle as a unit: audit the acked ledger against the logs *)

let test_loss_oracle_unit () =
  let g, _ = mk () in
  let now = ref (Clock.ms 1) in
  for i = 1 to 12 do
    now := commit_on g ~sid:(i mod 2) ~payload:i ~now:!now
  done;
  let wals = Shard_group.wals g in
  let acked = Shard_group.acked g in
  check_bool "ledger populated" true (List.length acked >= 12);
  Alcotest.(check (list string))
    "honest ledger clean" []
    (List.map
       (fun { Invariant.invariant; detail } -> invariant ^ ": " ^ detail)
       (Invariant.check_no_committed_loss ~acked wals));
  (* A fabricated ack no log witnesses — the stale-primary shape — must
     be flagged; its cts sits far above any checkpoint horizon. *)
  let forged = (999_999_999, 999_999_999, [ 0 ]) in
  (match Invariant.check_no_committed_loss ~acked:(forged :: acked) wals with
  | [ { Invariant.invariant = "no-committed-loss"; _ } ] -> ()
  | vs -> Alcotest.failf "expected exactly the forged loss, got %d" (List.length vs));
  (* An acked commit whose cts predates the log's checkpoint horizon has
     legitimately aged out of the bounded window: not a violation. *)
  let aged = (888_888_888, 0, [ 0 ]) in
  check_int "pre-horizon ack ages out" 0
    (List.length (Invariant.check_no_committed_loss ~acked:(aged :: acked) wals))

(* -------------------------------------------------------------------- *)
(* Satellite: double-restart idempotence (qcheck) *)

let read_all g ~now =
  let txn, t = Shard_group.begin_txn g ~now in
  let records = Schema.records small_schema in
  let vals =
    List.init records (fun rid -> fst (Shard_group.read g txn ~rid ~now:t))
  in
  ignore (Shard_group.abort g txn ~now:t);
  vals

let prop_double_restart_idempotent =
  QCheck.Test.make ~name:"restart_all is safely re-enterable" ~count:30
    QCheck.(make Gen.(int_range 0 100000))
    (fun seed ->
      let g = Shard_group.create ~shards:2 small_schema in
      let rng = Rng.create seed in
      let now = ref (Clock.ms 1) in
      for i = 1 to 5 + Rng.int rng 8 do
        let txn, t = Shard_group.begin_txn g ~now:!now in
        let rid = Rng.int rng (Schema.records small_schema) in
        (match Shard_group.write g txn ~rid ~payload:i ~now:t with
        | Engine.Committed_path _ -> now := Shard_group.commit g txn ~now:t
        | _ -> now := Shard_group.abort g txn ~now:t)
      done;
      Shard_group.crash_all g;
      let infos1 = Shard_group.restart_all g ~now:!now in
      let state1 = read_all g ~now:!now in
      (* Re-entry without an intervening crash: same clean slate, same
         recovered state, nothing left to truncate or roll back. *)
      let infos2 = Shard_group.restart_all g ~now:!now in
      let state2 = read_all g ~now:!now in
      List.length infos1 = List.length infos2
      && state1 = state2
      && List.for_all
           (fun (i : Engine.restart_info) ->
             i.Engine.truncated_frames = 0 && i.Engine.losers_rolled_back = 0)
           infos2
      &&
      (* Still a working group afterwards. *)
      let txn, t = Shard_group.begin_txn g ~now:!now in
      match Shard_group.write g txn ~rid:0 ~payload:77 ~now:t with
      | Engine.Committed_path _ ->
          ignore (Shard_group.commit g txn ~now:t);
          true
      | _ -> false)

(* -------------------------------------------------------------------- *)
(* Campaign-level gates *)

let campaign_base ~name ~seed =
  {
    Exp_config.default with
    Exp_config.name;
    seed;
    duration_s = 0.3;
    workers = 4;
    reads_per_txn = 2;
    writes_per_txn = 2;
    schema = small_schema;
    llts = [ { Exp_config.start_s = 0.05; duration_s = 0.15; count = 1 } ];
    gc_period = Clock.ms 5;
    sample_period_s = 0.05;
    ckpt_period_s = 0.1;
  }

let campaign_cfg ?(replicas = 2) ?(kill_steps = []) ~name ~seed () =
  {
    (Shard_runner.default ~shards:2 (campaign_base ~name ~seed)) with
    Shard_runner.cross_pct = 40;
    replicas;
    kill_steps;
  }

let test_kill_campaign_honest () =
  let cfg =
    campaign_cfg ~name:"replica-honest" ~seed:11 ~kill_steps:[ 2_000; 9_000 ] ()
  in
  let res = Shard_runner.run ~mode:Shard_runner.Sim cfg in
  check_int "zero violations" 0 (Fault_report.violation_count res.Shard_runner.report);
  let rd =
    match res.Shard_runner.digest.Shard_runner.d_repl with
    | Some rd -> rd
    | None -> Alcotest.fail "replicated digest block missing"
  in
  check_int "both kills landed" 2 rd.Shard_runner.rd_kills;
  check_bool "at least one promotion" true (rd.Shard_runner.rd_promotions >= 1);
  (* Satellite: restart and promotion/fencing visibility is uniform —
     the digest counters and the report gauges must tell one story. *)
  let gauge name =
    match Fault_report.gauge res.Shard_runner.report name with
    | Some v -> v
    | None -> Alcotest.failf "gauge %s missing" name
  in
  check_int "restarts gauge matches digest" rd.Shard_runner.rd_restarts
    (gauge "repl.restarts");
  check_int "kill gauge matches digest" rd.Shard_runner.rd_kills (gauge "repl.kills");
  check_int "promotion gauges sum to digest" rd.Shard_runner.rd_promotions
    (gauge "repl.promotions_s0" + gauge "repl.promotions_s1");
  check_int "fencing gauges sum to digest" rd.Shard_runner.rd_fencings
    (gauge "repl.fencings_s0" + gauge "repl.fencings_s1");
  check_bool "every completed failover within the budget" true
    (List.for_all
       (fun l -> l <= Shard_runner.rep_lag_bound / 1000)
       res.Shard_runner.failover_lags_us)

let test_kill_campaign_domains () =
  let cfg =
    campaign_cfg ~name:"replica-domains" ~seed:12 ~kill_steps:[ 3_000 ] ()
  in
  let sim = Shard_runner.run ~mode:Shard_runner.Sim cfg in
  let dom = Shard_runner.run ~mode:(Shard_runner.Domains { domains = 2 }) cfg in
  check_int "sim clean" 0 sim.Shard_runner.digest.Shard_runner.d_violations;
  check_int "domains clean" 0 dom.Shard_runner.digest.Shard_runner.d_violations;
  check_bool "domains swept periodically" true
    (Fault_report.checks_run dom.Shard_runner.report > 0);
  Alcotest.(check (list string))
    "digests agree" []
    (Shard_runner.digest_diff sim.Shard_runner.digest dom.Shard_runner.digest)

let test_replicas_zero_digest_unchanged () =
  let cfg = campaign_cfg ~name:"replica-off" ~seed:15 ~replicas:0 () in
  let res = Shard_runner.run ~mode:Shard_runner.Sim cfg in
  check_bool "no replicated digest block" true
    (res.Shard_runner.digest.Shard_runner.d_repl = None);
  check_bool "no replication gauges" true
    (Fault_report.gauge res.Shard_runner.report "repl.kills" = None);
  check_int "zero violations" 0 (Fault_report.violation_count res.Shard_runner.report)

let suites =
  [
    ( "replica-shipping",
      [
        Alcotest.test_case "backups hold the exact device prefix" `Quick
          test_mirror_exact_prefix;
      ] );
    ( "replica-failover",
      [
        Alcotest.test_case "kill, lease expiry, promotion" `Quick test_kill_then_promotion;
        Alcotest.test_case "promotion is deterministic" `Quick test_promotion_deterministic;
        Alcotest.test_case "one dead node per group" `Quick test_one_dead_node_per_group;
        Alcotest.test_case "revival after failover state-transfers" `Quick
          test_revive_after_failover_state_transfers;
        Alcotest.test_case "primaryless revival keeps its coffin and wins" `Quick
          test_primaryless_revive_keeps_coffin_and_wins;
      ] );
    ( "replica-loss-oracle",
      [ Alcotest.test_case "ledger audited against the logs" `Quick test_loss_oracle_unit ] );
    ("replica-restart", [ QCheck_alcotest.to_alcotest prop_double_restart_idempotent ]);
    ( "replica-campaign",
      [
        Alcotest.test_case "honest kill campaign is clean" `Slow test_kill_campaign_honest;
        Alcotest.test_case "sim-vs-domains under kills" `Slow test_kill_campaign_domains;
        Alcotest.test_case "replicas=0 keeps the unreplicated digest" `Quick
          test_replicas_zero_digest_unchanged;
      ] );
  ]
