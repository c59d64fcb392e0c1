(* Fault-injection harness tests: plan determinism, the invariant
   catalogue on healthy and deliberately-broken drivers, the §3.5
   crash/abort matrix, and end-to-end chaos properties through the
   runner. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -------------------------------------------------------------------- *)
(* Fault_plan *)

let grid = List.init 200 (fun i -> Clock.ms (10 * i))
let drain plan =
  let c = Fault_plan.cursor plan in
  List.concat_map (fun t -> Fault_plan.poll c ~now:t) grid

let test_plan_none_empty () =
  check_int "no injections" 0 (List.length (drain Fault_plan.none))

let test_plan_events_ordered () =
  let plan =
    Fault_plan.create
      ~events:
        [
          { Fault_plan.at = Clock.ms 5; action = Fault_plan.Crash };
          { Fault_plan.at = Clock.ms 1; action = Fault_plan.Wal_error };
        ]
      ()
    |> Fault_plan.cursor
  in
  check_int "nothing due yet" 0 (List.length (Fault_plan.poll plan ~now:0));
  check_bool "earliest first" true
    (Fault_plan.poll plan ~now:(Clock.ms 2) = [ Fault_plan.Wal_error ]);
  check_bool "later event" true
    (Fault_plan.poll plan ~now:(Clock.ms 10) = [ Fault_plan.Crash ]);
  check_int "events fire once" 0 (List.length (Fault_plan.poll plan ~now:(Clock.ms 100)))

let test_plan_deterministic () =
  let a = Fault_plan.random ~seed:99 () and b = Fault_plan.random ~seed:99 () in
  check_bool "same pp" true
    (Format.asprintf "%a" Fault_plan.pp a = Format.asprintf "%a" Fault_plan.pp b);
  check_bool "same injection sequence" true (drain a = drain b);
  let c = Fault_plan.random ~seed:100 () in
  check_bool "different seed, different plan" true
    (Format.asprintf "%a" Fault_plan.pp a <> Format.asprintf "%a" Fault_plan.pp c)

let test_plan_poisson_rate () =
  (* ~20/s over 2 simulated seconds of grid: expect roughly 40 arrivals;
     accept a generous band (Poisson, but deterministic per seed). *)
  let plan = Fault_plan.create ~seed:7 ~abort_rate:20. () in
  let n = List.length (drain plan) in
  check_bool "arrivals in band" true (n > 15 && n < 80)

let test_plan_negative_rate_raises () =
  match Fault_plan.create ~crash_rate:(-1.) () with
  | _ -> Alcotest.fail "negative rate must raise"
  | exception Invalid_argument _ -> ()

let test_plan_zero_check_period_raises () =
  (* A 0 ns period would sweep at every simulated nanosecond. *)
  match Fault_plan.create ~check_period:0 () with
  | _ -> Alcotest.fail "a zero check period must raise"
  | exception Invalid_argument _ -> ()

(* The replay [Fault_plan.poll] performs, written out from the plan's
   declared seed, rates and events: one sub-seed per action kind in
   declaration order (the retired WAL bit-flip kind's slot, [None],
   still draws one and discards it), exponential gaps, and at every
   poll the due events first, then each process's arrivals. It polls
   every process on every call, where [poll] returns at once when
   nothing is due. *)
let slots =
  Fault_plan.
    [ Some Crash; Some Abort_txn; Some Wal_error; Some Flush_fail; Some Evict_storm;
      Some Space_storm; None; Some Cleaner_stall; Some Llt_zombie; Some Collab_delay;
      Some Node_kill; Some Node_revive ]

let kinds = List.filter_map Fun.id slots

let reference_polls plan events times =
  let master = Rng.create (Fault_plan.seed plan) in
  let procs =
    List.filter_map
      (fun slot ->
        let rng = Rng.create (Int64.to_int (Rng.next_int64 master)) in
        match slot with
        | None -> None
        | Some k ->
            let rate = Fault_plan.rate plan k in
            let gap () = max 1 (Clock.seconds (-.log (1. -. Rng.float rng) /. rate)) in
            if rate > 0. then Some (k, gap, ref (gap ())) else None)
      slots
  in
  let due =
    ref (List.sort compare (List.map (fun (e : Fault_plan.event) -> (e.at, e.action)) events))
  in
  List.map
    (fun now ->
      let fired = List.filter (fun (at, _) -> at <= now) !due in
      due := List.filter (fun (at, _) -> at > now) !due;
      List.map snd fired
      @ List.concat_map
          (fun (k, gap, next) ->
            let out = ref [] in
            while !next <= now do
              out := k :: !out;
              next := !next + gap ()
            done;
            List.rev !out)
          procs)
    times

let qcheck_poll_matches_reference =
  QCheck.Test.make ~name:"poll = reference replay over seeded plans" ~count:200
    QCheck.(
      triple (int_bound 10_000) bool
        (small_list (pair (int_bound 400) (int_bound (List.length kinds - 1)))))
    (fun (seed, stalls, evs) ->
      let events =
        List.map (fun (ms, k) -> { Fault_plan.at = Clock.ms ms; action = List.nth kinds k }) evs
      in
      let plans =
        [
          Fault_plan.random ~seed ~stalls ~zombies:stalls ();
          Fault_plan.random_nodes ~seed ();
          Fault_plan.create ~seed ~events ~abort_rate:30. ~node_kill_rate:5. ();
        ]
      in
      (* Ragged poll instants, some repeated, some far apart. *)
      let rng = Rng.create seed in
      let t = ref 0 in
      let times = List.init 300 (fun _ -> t := !t + Rng.int rng (Clock.ms 3) * Rng.int rng 3; !t) in
      List.for_all2
        (fun plan events ->
          let c = Fault_plan.cursor plan in
          List.map (fun now -> Fault_plan.poll c ~now) times = reference_polls plan events times)
        plans
        [ []; []; events ])

(* -------------------------------------------------------------------- *)
(* Driver fixtures (same shape as the core suites). *)

let config ?(segment_bytes = 300) ?(vbuffer_bytes = 8 * 1024 * 1024) ?(zone_widen_sabotage = 0)
    () =
  {
    State.default_config with
    State.segment_bytes;
    vbuffer_bytes;
    zone_widen_sabotage;
    classifier = Classifier.create ~delta_hot:(Clock.ms 5) ~delta_llt:(Clock.ms 10) ();
    zone_refresh_period = 0;
  }

let committed_update mgr driver slot ~now ~payload =
  let t = Txn_manager.begin_txn mgr ~now in
  (match Siro.update slot ~vs:t.Txn.tid ~vs_time:now ~payload ~bytes:100 with
  | Siro.Relocated { version; lo; hi } -> ignore (Driver.relocate driver version ~lo ~hi ~now)
  | Siro.Kept -> ());
  Txn_manager.commit mgr t ~now:(now + Clock.us 20);
  Siro.stamp slot ~tid:t.Txn.tid ~cts:(Option.get t.Txn.commit_ts);
  t.Txn.tid

(* An LLT pins one version per record; three relocations happen per
   record so segments fill, seal, and (under vbuffer pressure) harden. *)
let pinned_setup ?vbuffer_bytes ?(records = 4) () =
  let mgr = Txn_manager.create () in
  let driver = Driver.create ~config:(config ?vbuffer_bytes ()) mgr in
  let slots =
    Array.init records (fun rid -> Siro.create ~rid ~bytes:100 ~payload:0 ~vs:0 ~vs_time:0)
  in
  Array.iteri
    (fun i slot -> ignore (committed_update mgr driver slot ~now:(Clock.ms (1 + i)) ~payload:1))
    slots;
  let llt = Txn_manager.begin_txn mgr ~now:(Clock.ms 5) in
  Array.iteri
    (fun i slot ->
      ignore (committed_update mgr driver slot ~now:(Clock.ms (20 + i)) ~payload:2);
      ignore (committed_update mgr driver slot ~now:(Clock.ms (30 + i)) ~payload:3);
      ignore (committed_update mgr driver slot ~now:(Clock.ms (40 + i)) ~payload:4))
    slots;
  (mgr, driver, llt)

let no_violations name vs =
  check_bool name true
    (match vs with
    | [] -> true
    | { Invariant.invariant; detail } :: _ ->
        Printf.printf "unexpected violation [%s] %s\n" invariant detail;
        false)

(* -------------------------------------------------------------------- *)
(* Invariant catalogue on healthy drivers *)

let test_invariants_hold_healthy () =
  let _, driver, _llt = pinned_setup () in
  no_violations "healthy buffered driver" (Invariant.check_all driver);
  ignore (Driver.sweep driver ~now:(Clock.ms 60));
  no_violations "after sweep" (Invariant.check_all driver)

let test_invariants_hold_after_pressure () =
  let _, driver, _llt = pinned_setup ~vbuffer_bytes:100 () in
  ignore (Driver.sweep driver ~now:(Clock.ms 60));
  check_bool "store populated" true (Version_store.live_bytes (Driver.store driver) > 0);
  no_violations "after pressure flush" (Invariant.check_all driver)

(* The sabotage knob: with an adjacent live reader, the sound test keeps
   the interval and the widened rule w=1 wrongly declares it dead. This
   is the unit-level form of what the chaos campaign must catch. *)
let test_sabotage_changes_decision () =
  let mgr = Txn_manager.create () in
  let creator = Txn_manager.begin_txn mgr ~now:0 in
  Txn_manager.commit mgr creator ~now:1;
  let reader = Txn_manager.begin_txn mgr ~now:2 in
  (* Advance the oracle well past the interval. *)
  for i = 1 to 4 do
    let t = Txn_manager.begin_txn mgr ~now:(Clock.ms i) in
    Txn_manager.commit mgr t ~now:(Clock.ms i + Clock.us 1)
  done;
  let tb = reader.Txn.tid in
  let lo = tb - 1 and hi = tb + 5 in
  let sound = Driver.create ~config:(config ()) mgr in
  let broken = Driver.create ~config:(config ~zone_widen_sabotage:1 ()) mgr in
  check_bool "sound rule keeps the pinned interval" false (State.interval_dead sound ~lo ~hi);
  check_bool "sabotaged rule prunes it" true (State.interval_dead broken ~lo ~hi)

(* -------------------------------------------------------------------- *)
(* Crash/abort matrix (§3.5) *)

let post_crash_checks driver =
  no_violations "post-crash emptiness" (Invariant.check_post_crash driver);
  no_violations "post-crash catalogue" (Invariant.check_all driver);
  check_int "space empty" 0 (Driver.space_bytes driver);
  check_int "chains empty" 0 (Driver.max_chain_length driver)

let test_crash_with_buffered_versions () =
  let _, driver, _llt = pinned_setup () in
  check_bool "versions buffered" true (Driver.space_bytes driver > 0);
  Driver.crash_restart driver;
  post_crash_checks driver;
  check_bool "buffered losses accounted as lost" true
    (Prune_stats.lost (Driver.stats driver) > 0)

let test_crash_between_sweep_and_cut () =
  let _, driver, _llt = pinned_setup ~vbuffer_bytes:100 () in
  ignore (Driver.sweep driver ~now:(Clock.ms 60));
  check_bool "hardened segments exist" true
    (Version_store.live_bytes (Driver.store driver) > 0);
  (* Crash in the window after the sweep hardened segments but before
     vCutter ran over them. *)
  Driver.crash_restart driver;
  post_crash_checks driver

let test_crash_mid_segment_flush () =
  Failpoint.with_scope @@ fun () ->
  let mgr, driver, _llt = pinned_setup ~vbuffer_bytes:100 () in
  ignore (Driver.sweep driver ~now:(Clock.ms 60));
  (* More relocations refill the buffer, then the flush path fails: the
     sweep leaves sealed segments stranded in the buffer while earlier
     ones are already hardened — the mid-flush crash state. *)
  let slot = Siro.create ~rid:99 ~bytes:100 ~payload:0 ~vs:0 ~vs_time:0 in
  for i = 0 to 5 do
    ignore (committed_update mgr driver slot ~now:(Clock.ms (70 + i)) ~payload:i)
  done;
  Failpoint.arm_fail_n "vsorter.flush" 1;
  let r = Driver.sweep driver ~now:(Clock.ms 80) in
  check_int "flush blocked by failpoint" 0 r.Vsorter.segments_flushed;
  check_bool "failpoint consulted" true (Failpoint.fail_count "vsorter.flush" >= 1);
  no_violations "consistent despite failed flush" (Invariant.check_all driver);
  Driver.crash_restart driver;
  post_crash_checks driver

let test_crash_mid_cut () =
  let mgr, driver, llt = pinned_setup ~vbuffer_bytes:100 () in
  ignore (Driver.sweep driver ~now:(Clock.ms 60));
  Txn_manager.commit mgr llt ~now:(Clock.ms 90);
  (* Everything is dead now; cut at most one segment so the crash lands
     between two vCutter steps with the store half-collected. *)
  let r = Driver.vcutter_step driver ~now:(Clock.ms 100) ~max_segments:1 in
  check_bool "one segment cut" true (r.Vcutter.segments_cut >= 1);
  no_violations "consistent mid-cut" (Invariant.check_all driver);
  Driver.crash_restart driver;
  post_crash_checks driver

let test_abort_leaves_llb_untouched () =
  let _, driver, _llt = pinned_setup () in
  let space = Driver.space_bytes driver in
  let chain = Driver.max_chain_length driver in
  Driver.abort_cleanup driver;
  check_int "space unchanged" space (Driver.space_bytes driver);
  check_int "chains unchanged" chain (Driver.max_chain_length driver);
  no_violations "catalogue clean after abort" (Invariant.check_all driver)

let test_wal_failpoint_counts_errors () =
  Failpoint.with_scope @@ fun () ->
  let wal = Wal.create () in
  Failpoint.arm_fail_n "wal.append" 2;
  Wal.append wal ~bytes:10 ();
  Wal.append wal ~bytes:10 ();
  Wal.append wal ~bytes:10 ();
  check_int "two rejected" 2 (Wal.errors wal);
  check_int "one durable" 10 (Wal.total_bytes wal)

(* -------------------------------------------------------------------- *)
(* prunable_by_views conservative w.r.t. the commit-time oracle *)

let history_gen =
  QCheck.Gen.(
    let* writer_count = 2 -- 12 in
    let* reader_starts = list_size (0 -- 6) (0 -- 100) in
    return (writer_count, reader_starts))

let build_history (writer_count, reader_starts) =
  let mgr = Txn_manager.create () in
  let version_bounds = ref [] in
  let next_reader = ref (List.sort compare reader_starts) in
  for i = 0 to writer_count - 1 do
    (match !next_reader with
    | r :: rest when r mod writer_count <= i ->
        ignore (Txn_manager.begin_txn mgr ~now:i);
        next_reader := rest
    | _ :: _ | [] -> ());
    let w = Txn_manager.begin_txn mgr ~now:i in
    version_bounds := w.Txn.tid :: !version_bounds;
    Txn_manager.commit mgr w ~now:i
  done;
  (mgr, List.rev !version_bounds)

let qcheck_prunable_by_views_conservative =
  QCheck.Test.make ~name:"prunable_by_views conservative w.r.t. Definition 3.3" ~count:500
    (QCheck.make history_gen)
    (fun case ->
      let mgr, bounds = build_history case in
      let views = Txn_manager.live_views mgr in
      let log = Txn_manager.commit_log mgr in
      let live = Txn_manager.live_begin_ts mgr in
      let rec intervals = function
        | a :: (b :: _ as rest) -> (a, b) :: intervals rest
        | [ _ ] | [] -> []
      in
      List.for_all
        (fun (vs, ve) ->
          match Prune.commit_interval log ~vs ~ve with
          | None -> true
          | Some (cs, ce) ->
              (* Whatever the read-view rule prunes, the oracle agrees is
                 dead. *)
              (not (Prune.prunable_by_views ~views ~vs ~ve))
              || Prune.dead_spec ~live ~vs:cs ~ve:ce)
        (intervals bounds))

(* -------------------------------------------------------------------- *)
(* End-to-end through the runner *)

let tiny_schema =
  { Schema.default with Schema.tables = 2; rows_per_table = 50; record_bytes = 64 }

let chaos_cfg ?(seed = 11) ?(duration_s = 0.4) () =
  {
    Exp_config.default with
    Exp_config.name = "fault-test";
    seed;
    duration_s;
    workers = 4;
    reads_per_txn = 2;
    writes_per_txn = 1;
    schema = tiny_schema;
    llts = [ { Exp_config.start_s = 0.05; duration_s = duration_s /. 2.; count = 1 } ];
    sample_period_s = 0.1;
    gc_period = Clock.ms 5;
  }

let vdriver schema = Siro_engine.create ~flavor:`Pg schema

let comparable (r : Runner.result) =
  ( r.Runner.commits,
    r.Runner.conflicts,
    r.Runner.llt_reads,
    r.Runner.throughput,
    r.Runner.version_space,
    r.Runner.redo,
    r.Runner.max_chain,
    r.Runner.chain_cdf,
    Histogram.cdf r.Runner.latency_us )

let test_noop_plan_bit_identical () =
  let cfg = chaos_cfg () in
  let bare = Runner.run ~engine:vdriver cfg in
  let noop = Runner.run ~engine:vdriver ~faults:Fault_plan.none cfg in
  check_bool "no-op plan leaves the run bit-identical" true (comparable bare = comparable noop);
  check_bool "sweeps ran" true (Fault_report.checks_run noop.Runner.faults > 0);
  check_bool "no violations" true (Fault_report.ok noop.Runner.faults)

let qcheck_random_plans_hold_invariants =
  QCheck.Test.make ~name:"randomized fault plans never break the invariants" ~count:4
    QCheck.(make Gen.(0 -- 10_000))
    (fun seed ->
      let plan = Fault_plan.random ~seed () in
      let r = Runner.run ~engine:vdriver ~faults:plan (chaos_cfg ~seed ()) in
      Fault_report.checks_run r.Runner.faults > 0 && Fault_report.ok r.Runner.faults)

let test_report_caps_details () =
  let rep = Fault_report.create ~max_details:2 () in
  for i = 1 to 5 do
    Fault_report.record rep ~at:(Clock.ms i) ~invariant:"x" ~detail:(string_of_int i)
  done;
  check_int "stored capped" 2 (List.length (Fault_report.violations rep));
  check_int "count exact" 5 (Fault_report.violation_count rep);
  check_bool "not ok" true (not (Fault_report.ok rep))

let suites =
  [
    ( "fault.plan",
      [
        Alcotest.test_case "none is empty" `Quick test_plan_none_empty;
        Alcotest.test_case "events ordered, fire once" `Quick test_plan_events_ordered;
        Alcotest.test_case "seeded determinism" `Quick test_plan_deterministic;
        QCheck_alcotest.to_alcotest qcheck_poll_matches_reference;
        Alcotest.test_case "poisson rate" `Quick test_plan_poisson_rate;
        Alcotest.test_case "negative rate raises" `Quick test_plan_negative_rate_raises;
        Alcotest.test_case "zero check period raises" `Quick test_plan_zero_check_period_raises;
      ] );
    ( "fault.invariants",
      [
        Alcotest.test_case "healthy driver" `Quick test_invariants_hold_healthy;
        Alcotest.test_case "after pressure" `Quick test_invariants_hold_after_pressure;
        Alcotest.test_case "sabotage flips the decision" `Quick test_sabotage_changes_decision;
        QCheck_alcotest.to_alcotest qcheck_prunable_by_views_conservative;
      ] );
    ( "fault.matrix",
      [
        Alcotest.test_case "crash with buffered versions" `Quick test_crash_with_buffered_versions;
        Alcotest.test_case "crash between sweep and cut" `Quick test_crash_between_sweep_and_cut;
        Alcotest.test_case "crash mid segment flush" `Quick test_crash_mid_segment_flush;
        Alcotest.test_case "crash mid cut" `Quick test_crash_mid_cut;
        Alcotest.test_case "abort leaves LLB untouched" `Quick test_abort_leaves_llb_untouched;
        Alcotest.test_case "wal failpoint" `Quick test_wal_failpoint_counts_errors;
      ] );
    ( "fault.runner",
      [
        Alcotest.test_case "no-op plan bit-identical" `Quick test_noop_plan_bit_identical;
        QCheck_alcotest.to_alcotest qcheck_random_plans_hold_invariants;
        Alcotest.test_case "report caps details" `Quick test_report_caps_details;
      ] );
  ]
