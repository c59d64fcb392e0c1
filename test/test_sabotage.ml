(* The sabotage registry, enumerated (DESIGN §4a).

   Every row of [Sabotage.all] gets one scenario, run twice: honest
   ([None]) it must record no violation at all; armed through
   [Sabotage]'s own arming functions it must record at least one of the
   row's [caught_by] invariants. The match in [scenario] is exhaustive,
   so a new row does not compile until it has a scenario here. Some
   scenarios also pin what makes the row's catch meaningful (the
   watchdog really escalated, the lag really exceeded the bound). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_schema = { Schema.default with Schema.tables = 4; rows_per_table = 250 }

(* The chaos CLI's unsharded campaign shape. *)
let unsharded_cfg ~seed ~duration_s =
  {
    Exp_config.default with
    Exp_config.name = "sabotage";
    seed;
    duration_s;
    workers = 8;
    schema = small_schema;
    phases = [ { Exp_config.at_s = 0.; pattern = Access.Zipfian 0.9 } ];
    llts =
      [
        { Exp_config.start_s = duration_s /. 5.; duration_s = duration_s /. 2.; count = 2 };
        { Exp_config.start_s = duration_s /. 2.; duration_s = duration_s /. 4.; count = 1 };
      ];
  }

let pg ?(gc = Gc_backend.default_config) s driver_config =
  Gc_backend.wrap_engine (Sabotage.gc_config s gc) (fun schema ->
      Siro_engine.create ~driver_config:(Sabotage.driver_config s driver_config) ~flavor:`Pg
        schema)

let run_unsharded ?gc ?(driver_config = State.default_config) ?(faults = Fault_plan.none)
    ?watchdog s cfg =
  Runner.run ~engine:(pg ?gc s driver_config) ~faults ?watchdog cfg

(* A campaign with a lone LLT over a 64 KiB vBuffer: the tiny buffer
   forces hardened-store traffic, so every GC backend's cutter-side
   reclaim path runs; the range defect drops the oldest live reader
   from the subtraction, which only over-reclaims when no second reader
   with the same begin covers the victim versions. *)
let gc_cfg =
  {
    (unsharded_cfg ~seed:99 ~duration_s:1.0) with
    Exp_config.name = "gc-sabotage";
    llts = [ { Exp_config.start_s = 0.2; duration_s = 0.4; count = 1 } ];
    gc_period = Clock.ms 5;
  }

(* Seeded cleaner stalls against the liveness watchdog. *)
let liveness_cfg =
  {
    Exp_config.default with
    Exp_config.name = "liveness-test";
    seed = 13;
    duration_s = 1.5;
    workers = 4;
    reads_per_txn = 2;
    writes_per_txn = 1;
    schema = { Schema.default with Schema.tables = 2; rows_per_table = 100; record_bytes = 64 };
    llts = [ { Exp_config.start_s = 0.1; duration_s = 1.2; count = 1 } ];
    sample_period_s = 0.25;
    gc_period = Clock.ms 5;
  }

let liveness_wdog = { Watchdog.default_config with Watchdog.stall_timeout = Clock.ms 20 }

let sharded_cfg ?(shards = 2) ?(cross_pct = 50) ?(replicas = 0) ~seed ~duration_s s =
  let base =
    {
      Exp_config.default with
      Exp_config.name = "sabotage-sharded";
      seed;
      duration_s;
      workers = 4;
      reads_per_txn = 2;
      writes_per_txn = 2;
      schema = { Schema.default with Schema.tables = 2; rows_per_table = 100; record_bytes = 64 };
      llts =
        [ { Exp_config.start_s = duration_s /. 8.; duration_s = duration_s /. 2.; count = 1 } ];
      gc_period = Clock.ms 5;
      sample_period_s = 0.05;
      ckpt_period_s = 0.1;
    }
  in
  {
    (Shard_runner.default ~shards base) with
    Shard_runner.cross_pct;
    faults = Fault_plan.create ~check_period:(Clock.ms 20) ();
    replicas;
    sabotage = s;
  }

let shard_report cfg = (Shard_runner.run cfg).Shard_runner.report

(* A replicated campaign whose honest twin must really fail over, so
   its clean report is not vacuous. *)
let failover_report s cfg =
  let r = Shard_runner.run cfg in
  (match (s, r.Shard_runner.digest.Shard_runner.d_repl) with
  | None, Some rd ->
      check_bool "honest twin promoted a successor" true (rd.Shard_runner.rd_promotions >= 1)
  | None, None -> Alcotest.fail "replicated digest block missing"
  | Some _, _ -> ());
  r.Shard_runner.report

(* The row's scenario under [s] (the row itself, or [None] for the
   honest twin); returns the campaign's report. *)
let scenario row s =
  match (row : Sabotage.t) with
  | Sabotage.Zone_widen -> (run_unsharded s (unsharded_cfg ~seed:7 ~duration_s:1.0)).Runner.faults
  | Sabotage.Clog_over_truncate ->
      (* The LLTs hold the freeze horizon at their begin while the
         oracle crosses log pages, so a horizon one page too far lands
         above a live transaction. *)
      (run_unsharded s (unsharded_cfg ~seed:42 ~duration_s:1.0)).Runner.faults
  | Sabotage.Quota_ignore ->
      let driver_config =
        { State.default_config with State.governor = Governor.governed ~quota_bytes:786432 }
      in
      (run_unsharded ~driver_config s (unsharded_cfg ~seed:42 ~duration_s:2.0)).Runner.faults
  | Sabotage.Skip_tail_check | Sabotage.Discard_past_checkpoint ->
      (* Three power losses by WAL position, each leaving a torn tail:
         the honest restart truncates it, the sabotaged one replays it.
         The log-recycling row crashes after the first and second
         checkpoints (about 32k frames apart): an honest checkpoint
         recycles the log below the previous one, so the restart still
         finds a base; the sabotaged one recycles through its own. *)
      let seed = 42 in
      let crash_points =
        if row = Sabotage.Skip_tail_check then [ 800; 2400; 4000 ] else [ 800; 40000; 80000 ]
      in
      let plan = Fault_plan.random ~crash_points ~torn_tail:true ~seed () in
      let driver_config = { State.default_config with State.durable_wal = true } in
      (run_unsharded ~driver_config ~faults:plan s (unsharded_cfg ~seed ~duration_s:1.0))
        .Runner.faults
  | Sabotage.No_watchdog ->
      let faults =
        Fault_plan.create ~seed:17 ~cleaner_stall_rate:2. ~check_period:(Clock.ms 20) ()
      in
      let r = run_unsharded ~faults ~watchdog:(Sabotage.watchdog s liveness_wdog) s liveness_cfg in
      let bound = Watchdog.lag_bound liveness_wdog ~gc_period:liveness_cfg.Exp_config.gc_period in
      (match s with
      | None ->
          check_bool "honest run inside the bound" true (r.Runner.max_reclamation_lag <= bound);
          check_bool "watchdog did real work" true (r.Runner.watchdog_escalations > 0)
      | Some _ ->
          check_bool "sabotage lag exceeds the bound" true (r.Runner.max_reclamation_lag > bound));
      r.Runner.faults
  | Sabotage.Gc kind ->
      let driver_config = { State.default_config with State.vbuffer_bytes = 64 * 1024 } in
      let gc = { Gc_backend.default_config with Gc_backend.kind } in
      (run_unsharded ~gc ~driver_config s gc_cfg).Runner.faults
  | Sabotage.Skip_coord_decision -> shard_report (sharded_cfg ~seed:11 ~duration_s:0.1 s)
  | Sabotage.Net Shard_group.Apply_on_timeout ->
      let cfg = sharded_cfg ~shards:3 ~cross_pct:40 ~seed:42 ~duration_s:0.2 s in
      let net =
        Fault_plan.random_net ~loss:0.15 ~delay_us:400 ~partitions:2 ~shards:3
          ~horizon:(Clock.seconds 0.2) ~seed:42 ()
      in
      shard_report { cfg with Shard_runner.net }
  | Sabotage.Net Shard_group.Ack_forge ->
      shard_report (sharded_cfg ~shards:3 ~cross_pct:40 ~seed:11 ~duration_s:0.1 s)
  | Sabotage.Failover Replica.Ack_before_replicate ->
      (* No ship step ever fires under this defect, so the kills come
         from the time-based plan, not a step schedule; 0.15 s is the
         shortest campaign in which a kill lands in the unshipped
         window. The plan's kill and revive arrivals at the helper's
         20 ms sweep: [create] draws the same streams whatever the
         check period. *)
      let cfg = sharded_cfg ~cross_pct:40 ~replicas:2 ~seed:13 ~duration_s:0.15 s in
      let nodes = Fault_plan.random_nodes ~seed:13 () in
      let faults =
        Fault_plan.create ~seed:13
          ~node_kill_rate:(Fault_plan.rate nodes Fault_plan.Node_kill)
          ~node_revive_rate:(Fault_plan.rate nodes Fault_plan.Node_revive)
          ~check_period:(Clock.ms 20) ()
      in
      failover_report s { cfg with Shard_runner.faults }
  | Sabotage.Failover Replica.Stale_primary_writes ->
      (* Kill a primary at the very first replication step: the stale
         claimant exists from its revival on, and must be caught twice
         over — as a second primary and as acks no log backs. *)
      let cfg = sharded_cfg ~cross_pct:40 ~replicas:2 ~seed:42 ~duration_s:0.1 s in
      let report = failover_report s { cfg with Shard_runner.kill_steps = [ 1 ] } in
      if s <> None then begin
        let kinds =
          List.map (fun (v : Fault_report.violation) -> v.Fault_report.invariant)
            (Fault_report.violations report)
        in
        check_bool "split brain caught" true (List.mem "no-split-brain" kinds);
        check_bool "fabricated acks caught as loss" true (List.mem "no-committed-loss" kinds)
      end;
      report
  | Sabotage.Stale_cursor ->
      (* Power losses by global log position, each with a torn tail.
         Each crash point first brings the cursors up to date, so a
         crash that loses unflushed frames leaves a cursor that misses
         it holding records the device no longer has. The first sweep
         makes the cursors before the second point; the last point
         lands on unflushed frames. *)
      let cfg = sharded_cfg ~seed:42 ~duration_s:0.2 s in
      shard_report
        {
          cfg with
          Shard_runner.faults =
            Fault_plan.create ~crash_points:[ 4000; 6000; 8000; 10000 ] ~torn_tail:true
              ~check_period:(Clock.ms 20) ();
        }

let test_row row () =
  let name = Sabotage.name row in
  let honest = scenario row None in
  check_bool (name ^ ": honest twin swept") true (Fault_report.checks_run honest > 0);
  check_int (name ^ ": honest twin clean") 0 (Fault_report.violation_count honest);
  let armed = scenario row (Some row) in
  let fired =
    List.sort_uniq compare
      (List.map (fun v -> v.Fault_report.invariant) (Fault_report.violations armed))
  in
  check_bool
    (Printf.sprintf "%s: caught by one of [%s] (fired: [%s])" name
       (String.concat "; " (Sabotage.caught_by row))
       (String.concat "; " fired))
    true
    (List.exists (fun inv -> List.mem inv fired) (Sabotage.caught_by row))

let test_registry () =
  check_int "fifteen rows" 15 (List.length Sabotage.all);
  List.iter
    (fun s ->
      check_bool (Sabotage.name s ^ " round-trips") true
        (Sabotage.of_name (Sabotage.name s) = Some s);
      check_bool (Sabotage.name s ^ " names an invariant") true (Sabotage.caught_by s <> []))
    Sabotage.all;
  check_bool "unknown name" true (Sabotage.of_name "nosuch" = None)

let suites =
  [
    ( "sabotage",
      Alcotest.test_case "registry" `Quick test_registry
      :: List.map (fun s -> Alcotest.test_case (Sabotage.name s) `Slow (test_row s)) Sabotage.all
    );
  ]
