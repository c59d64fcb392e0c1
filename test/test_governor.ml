(* Version-space governor tests: the health ladder's thresholds,
   adjacency and hysteresis; the snapshot-too-old shedding path through
   the driver; the retry backoff's determinism and cap; and the quota
   envelope as a property over random configurations and histories. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -------------------------------------------------------------------- *)
(* Ladder unit tests (pure Governor) *)

let gcfg ?(quota = 1000) ?(sabotage = false) () =
  {
    (Governor.governed ~quota_bytes:quota) with
    Governor.quota_ignore_sabotage = sabotage;
    shed_grace = Clock.ms 10;
  }

let test_thresholds () =
  let c = gcfg () in
  check_int "normal" 0 (Governor.enter_threshold c Governor.Normal);
  check_int "pressured at 55%" 550 (Governor.enter_threshold c Governor.Pressured);
  check_int "emergency at 75%" 750 (Governor.enter_threshold c Governor.Emergency);
  check_int "shedding at 90%" 900 (Governor.enter_threshold c Governor.Shedding)

let test_escalation_one_rung_per_observation () =
  let g = Governor.create ~config:(gcfg ()) () in
  (* A reading far past every threshold still climbs one rung at a
     time: adjacency is structural, not a property of gentle load. *)
  check_bool "first step" true (Governor.observe g ~now:1 ~space_bytes:5000 = Governor.Pressured);
  check_bool "second step" true (Governor.observe g ~now:2 ~space_bytes:5000 = Governor.Emergency);
  check_bool "third step" true (Governor.observe g ~now:3 ~space_bytes:5000 = Governor.Shedding);
  check_bool "top rung absorbs" true (Governor.observe g ~now:4 ~space_bytes:5000 = Governor.Shedding);
  check_int "three transitions logged" 3 (List.length (Governor.transitions g));
  check_bool "honest ladder" true (Governor.check_ladder g = [])

let test_hysteresis_no_flap () =
  let g = Governor.create ~config:(gcfg ()) () in
  ignore (Governor.observe g ~now:1 ~space_bytes:560);
  check_bool "pressured" true (Governor.rung g = Governor.Pressured);
  (* Oscillating just under the entry threshold must not de-escalate:
     the floor is 550 * (1 - 0.08) = 506. *)
  ignore (Governor.observe g ~now:2 ~space_bytes:540);
  ignore (Governor.observe g ~now:3 ~space_bytes:510);
  check_bool "held through the band" true (Governor.rung g = Governor.Pressured);
  ignore (Governor.observe g ~now:4 ~space_bytes:505);
  check_bool "released under the floor" true (Governor.rung g = Governor.Normal);
  check_int "exactly two transitions" 2 (List.length (Governor.transitions g));
  check_bool "honest ladder" true (Governor.check_ladder g = [])

let test_disabled_and_sabotaged_inert () =
  let off = Governor.create () in
  check_bool "disabled" true (not (Governor.enabled off));
  check_bool "observe answers Normal" true
    (Governor.observe off ~now:1 ~space_bytes:max_int = Governor.Normal);
  check_int "no transitions" 0 (List.length (Governor.transitions off));
  let sab = Governor.create ~config:(gcfg ~sabotage:true ()) () in
  check_bool "sabotaged not enabled" true (not (Governor.enabled sab));
  check_bool "sabotaged answers Normal" true
    (Governor.observe sab ~now:1 ~space_bytes:max_int = Governor.Normal);
  check_int "sabotaged logs nothing" 0 (List.length (Governor.transitions sab))

let test_rung_mechanisms () =
  let g = Governor.create ~config:(gcfg ()) () in
  check_int "normal budget" 64 (Governor.max_segments g);
  check_bool "normal scale" true (Governor.gc_scale g = 1.0);
  ignore (Governor.observe g ~now:1 ~space_bytes:5000);
  check_int "pressured budget" 256 (Governor.max_segments g);
  check_bool "pressured scale" true (Governor.gc_scale g = 0.25);
  check_bool "no emergency yet" true (not (Governor.emergency_active g));
  ignore (Governor.observe g ~now:2 ~space_bytes:5000);
  check_bool "emergency active" true (Governor.emergency_active g);
  check_bool "not shedding yet" true (not (Governor.shed_active g));
  ignore (Governor.observe g ~now:3 ~space_bytes:5000);
  check_bool "shedding active" true (Governor.shed_active g);
  check_bool "emergency still active" true (Governor.emergency_active g)

let test_dwell_times_account_for_now () =
  let g = Governor.create ~config:(gcfg ()) () in
  ignore (Governor.observe g ~now:(Clock.ms 10) ~space_bytes:5000);
  ignore (Governor.observe g ~now:(Clock.ms 30) ~space_bytes:0);
  let dwell = Governor.dwell_times g ~now:(Clock.ms 50) in
  check_int "all four rungs listed" 4 (List.length dwell);
  let total = List.fold_left (fun acc (_, t) -> acc + t) 0 dwell in
  check_int "dwell sums to elapsed time" (Clock.ms 50) total;
  check_int "pressured dwell" (Clock.ms 20) (List.assoc Governor.Pressured dwell)

let test_config_validation () =
  let expect_invalid name c =
    match Governor.create ~config:c () with
    | _ -> Alcotest.fail name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "unordered fractions"
    { (gcfg ()) with Governor.pressured_frac = 0.8; emergency_frac = 0.7 };
  expect_invalid "hysteresis out of range" { (gcfg ()) with Governor.hysteresis_frac = 1.0 };
  expect_invalid "zero batch" { (gcfg ()) with Governor.shed_batch = 0 }

(* -------------------------------------------------------------------- *)
(* Ladder monotonicity under monotone load (qcheck) *)

let qcheck_monotone_load_monotone_ladder =
  QCheck.Test.make ~name:"monotone load climbs the ladder monotonically, one rung at a time"
    ~count:300
    QCheck.(list_of_size Gen.(1 -- 40) (int_bound 2000))
    (fun readings ->
      let g = Governor.create ~config:(gcfg ()) () in
      let sorted = List.sort compare readings in
      let rec feed i prev = function
        | [] -> true
        | space :: rest ->
            let r = Governor.observe g ~now:i ~space_bytes:space in
            let ri = Governor.rung_index r and pi = Governor.rung_index prev in
            ri >= pi && ri - pi <= 1 && feed (i + 1) r rest
      in
      feed 1 Governor.Normal sorted && Governor.check_ladder g = [])

(* -------------------------------------------------------------------- *)
(* Retry backoff: deterministic per seed, capped, bounded attempts *)

let drain_backoff b =
  let rec go acc = match Backoff.next b with Some d -> go (d :: acc) | None -> List.rev acc in
  go []

let test_backoff_deterministic_and_capped () =
  let mk () = Backoff.create ~base_ns:100 ~cap_ns:1000 ~max_attempts:8 (Rng.create 7) in
  let a = drain_backoff (mk ()) and b = drain_backoff (mk ()) in
  check_bool "same seed, same delays" true (a = b);
  check_int "exactly max_attempts delays" 8 (List.length a);
  List.iter
    (fun d -> check_bool "within cap + jitter" true (d >= 100 && d <= 1000 + 250))
    a;
  (* The first delay is base-sized; growth saturates at the cap. *)
  check_bool "first delay near base" true (List.hd a <= 125);
  let last = List.nth a 7 in
  check_bool "late delays cap-sized" true (last >= 1000)

let qcheck_backoff_properties =
  QCheck.Test.make ~name:"backoff: per-seed deterministic, capped, attempt-bounded" ~count:300
    QCheck.(
      make
        Gen.(
          let* seed = 0 -- 100_000 in
          let* base = 1 -- 1000 in
          let* cap_mult = 1 -- 64 in
          let* attempts = 1 -- 12 in
          return (seed, base, base * cap_mult, attempts)))
    (fun (seed, base, cap, attempts) ->
      let mk () = Backoff.create ~base_ns:base ~cap_ns:cap ~max_attempts:attempts (Rng.create seed) in
      let a = drain_backoff (mk ()) and b = drain_backoff (mk ()) in
      let bound = cap + int_of_float (float_of_int cap *. 0.25) + 1 in
      a = b
      && List.length a = attempts
      && List.for_all (fun d -> d >= min base cap && d <= bound) a
      && Backoff.next (mk ()) <> None)

(* -------------------------------------------------------------------- *)
(* Driver fixtures: governed instance under LLT pinning *)

let config ?(segment_bytes = 300) ?(quota = 0) ?(sabotage = false) ?(grace = 0) () =
  {
    State.default_config with
    State.segment_bytes;
    vbuffer_bytes = 8 * 1024 * 1024;
    classifier = Classifier.create ~delta_hot:(Clock.ms 5) ~delta_llt:(Clock.ms 10) ();
    zone_refresh_period = 0;
    governor =
      (if quota = 0 then Governor.default_config
       else
         {
           (Governor.governed ~quota_bytes:quota) with
           Governor.quota_ignore_sabotage = sabotage;
           shed_grace = grace;
           shed_batch = 4;
         });
  }

let committed_update mgr driver slot ~now ~payload =
  let t = Txn_manager.begin_txn mgr ~now in
  (match Siro.update slot ~vs:t.Txn.tid ~vs_time:now ~payload ~bytes:100 with
  | Siro.Relocated { version; lo; hi } -> ignore (Driver.relocate driver version ~lo ~hi ~now)
  | Siro.Kept -> ());
  Txn_manager.commit mgr t ~now:(now + Clock.us 20);
  Siro.stamp slot ~tid:t.Txn.tid ~cts:(Option.get t.Txn.commit_ts)

(* An LLT opens early and pins one version per record; with enough
   records the pins spread across many segments, each blocked from
   cutting, so no amount of sweep-and-cut can get back under the quota
   without shedding the LLT. *)
let pinned_overload ?(records = 6) ?(rounds = 12) ~quota ?(sabotage = false) ?(grace = 0) () =
  let mgr = Txn_manager.create () in
  let driver = Driver.create ~config:(config ~quota ~sabotage ~grace ()) mgr in
  let slots =
    Array.init records (fun rid -> Siro.create ~rid ~bytes:100 ~payload:0 ~vs:0 ~vs_time:0)
  in
  Array.iteri
    (fun i slot -> committed_update mgr driver slot ~now:(Clock.ms 1 + Clock.us i) ~payload:1)
    slots;
  let llt = Txn_manager.begin_txn mgr ~now:(Clock.ms 8) in
  for round = 0 to rounds - 1 do
    Array.iteri
      (fun i slot ->
        committed_update mgr driver slot
          ~now:(Clock.ms (20 + (10 * round)) + Clock.us i)
          ~payload:(round + 2))
      slots
  done;
  (mgr, driver, llt)

let test_shedding_evicts_the_pin_and_recovers () =
  (* 60 pins across ~20 segments: > 4000 B is unreclaimable while the
     LLT lives, whatever the relocate-path assists managed during
     setup. The grace period outlives the whole setup, so the first
     chance to shed is the explicit maintenance call. *)
  let _, driver, llt =
    pinned_overload ~records:60 ~rounds:6 ~quota:4000 ~grace:(Clock.ms 200) ()
  in
  check_bool "overloaded before maintenance" true (Driver.space_bytes driver > 4000);
  check_bool "the LLT survives the grace period" true (Txn.is_active llt);
  let _ = Driver.maintain driver ~now:(Clock.ms 500) in
  let g = Driver.governor driver in
  check_bool "the LLT was shed" true (not (Txn.is_active llt));
  check_bool "sheds counted" true (Governor.sheds g > 0);
  check_bool "space back under quota" true (Driver.space_bytes driver <= 4000);
  check_bool "honest ladder" true (Governor.check_ladder g = []);
  check_bool "reached shedding" true
    (List.exists (fun tr -> tr.Governor.to_rung = Governor.Shedding) (Governor.transitions g));
  (* Quiet observations walk the ladder back down, one rung at a time. *)
  for i = 1 to 4 do
    ignore (Driver.maintain driver ~now:(Clock.ms (500 + i)))
  done;
  check_bool "recovered to Normal" true (Driver.rung driver = Governor.Normal);
  check_bool "still honest" true (Governor.check_ladder g = []);
  check_bool "no invariant violations" true (Invariant.check_governor driver = [])

let test_grace_period_protects_young_victims () =
  (* Same overload, but every live transaction is younger than the
     grace period: shedding finds no candidate and must not kill. *)
  let _, driver, llt = pinned_overload ~quota:4000 ~grace:Clock.(seconds 10.) () in
  let _ = Driver.maintain driver ~now:(Clock.ms 400) in
  check_bool "young LLT survives" true (Txn.is_active llt);
  check_int "nothing shed" 0 (Governor.sheds (Driver.governor driver))

let test_backpressure_assists_on_relocate () =
  let mgr, driver, _llt =
    pinned_overload ~records:60 ~rounds:6 ~quota:4000 ~grace:Clock.(seconds 10.) ()
  in
  (* The ladder is already at the top; the next relocation must pay. *)
  let before = Governor.assists (Driver.governor driver) in
  let slot = Siro.create ~rid:99 ~bytes:100 ~payload:0 ~vs:0 ~vs_time:0 in
  committed_update mgr driver slot ~now:(Clock.ms 500) ~payload:9;
  committed_update mgr driver slot ~now:(Clock.ms 501) ~payload:10;
  check_bool "writer assisted maintenance" true (Governor.assists (Driver.governor driver) > before)

let test_quota_sabotage_is_caught_by_the_invariant () =
  let _, driver, llt =
    pinned_overload ~records:60 ~rounds:6 ~quota:4000 ~sabotage:true ~grace:0 ()
  in
  let _ = Driver.maintain driver ~now:(Clock.ms 400) in
  check_bool "sabotaged governor never sheds" true (Txn.is_active llt);
  check_bool "space still over quota" true (Driver.space_bytes driver > 4000);
  let violations = Invariant.check_governor driver in
  check_bool "space-quota violation flagged" true
    (List.exists (fun v -> v.Invariant.invariant = "space-quota") violations)

let test_ungoverned_runs_record_no_checkpoint () =
  let _, driver, _llt = pinned_overload ~quota:0 () in
  let _ = Driver.maintain driver ~now:(Clock.ms 400) in
  check_bool "no checkpoint without a quota" true
    ((driver : State.t).State.post_maintain_space = None);
  check_bool "no governor violations" true (Invariant.check_governor driver = [])

(* -------------------------------------------------------------------- *)
(* Quota envelope as a property: random quota x random history *)

let overload_case_gen =
  QCheck.Gen.(
    let* records = 2 -- 8 in
    let* rounds = 2 -- 15 in
    (* Quota floor: the open segments (one per class) plus slack for
       the freshest sealed tail that nothing can reclaim yet. *)
    let floor = (Vclass.count + 2) * 300 in
    let* quota = floor -- (4 * floor) in
    return (records, rounds, quota))

let qcheck_space_within_quota_after_maintain =
  QCheck.Test.make
    ~name:"random quota x random history: maintain ends within the hard quota" ~count:60
    (QCheck.make overload_case_gen)
    (fun (records, rounds, quota) ->
      let _, driver, _llt = pinned_overload ~records ~rounds ~quota ~grace:0 () in
      let _ = Driver.maintain driver ~now:(Clock.ms 900) in
      Driver.space_bytes driver <= quota
      && Governor.check_ladder (Driver.governor driver) = []
      && Invariant.check_governor driver = [])

(* -------------------------------------------------------------------- *)
(* End-to-end: a governed run under a space-storm plan is reproducible *)

let governed_engine schema =
  Siro_engine.create
    ~driver_config:
      { State.default_config with State.governor = Governor.governed ~quota_bytes:(768 * 1024) }
    ~flavor:`Pg schema

let storm_cfg seed =
  {
    Exp_config.default with
    Exp_config.name = "governor-storm";
    seed;
    duration_s = 0.6;
    workers = 4;
    reads_per_txn = 2;
    writes_per_txn = 1;
    schema = { Schema.default with Schema.tables = 2; rows_per_table = 50; record_bytes = 64 };
    llts = [ { Exp_config.start_s = 0.05; duration_s = 0.3; count = 1 } ];
    sample_period_s = 0.1;
    gc_period = Clock.ms 5;
  }

let comparable (r : Runner.result) =
  ( r.Runner.commits,
    r.Runner.conflicts,
    r.Runner.throughput,
    r.Runner.version_space,
    r.Runner.retries,
    r.Runner.give_ups,
    r.Runner.sheds,
    Fault_report.to_string r.Runner.faults )

let test_governed_storm_run_reproducible () =
  let plan () = Fault_plan.create ~seed:5 ~space_storm_rate:30. ~abort_rate:10. () in
  let a = Runner.run ~engine:governed_engine ~faults:(plan ()) (storm_cfg 21) in
  let b = Runner.run ~engine:governed_engine ~faults:(plan ()) (storm_cfg 21) in
  check_bool "same seed, same run" true (comparable a = comparable b);
  check_bool "no violations" true (Fault_report.ok a.Runner.faults);
  check_bool "storms were injected" true
    (List.mem_assoc "space-storm" (Fault_report.faults_injected a.Runner.faults));
  check_bool "robustness gauges exported" true
    (Fault_report.gauge a.Runner.faults "sheds" <> None
    && Fault_report.gauge a.Runner.faults "retries" <> None
    && Fault_report.gauge a.Runner.faults "wal_errors" <> None)

let suites =
  [
    ( "governor.ladder",
      [
        Alcotest.test_case "thresholds" `Quick test_thresholds;
        Alcotest.test_case "escalation one rung per observation" `Quick
          test_escalation_one_rung_per_observation;
        Alcotest.test_case "hysteresis prevents flapping" `Quick test_hysteresis_no_flap;
        Alcotest.test_case "disabled and sabotaged are inert" `Quick
          test_disabled_and_sabotaged_inert;
        Alcotest.test_case "rung mechanisms" `Quick test_rung_mechanisms;
        Alcotest.test_case "dwell times" `Quick test_dwell_times_account_for_now;
        Alcotest.test_case "config validation" `Quick test_config_validation;
        QCheck_alcotest.to_alcotest qcheck_monotone_load_monotone_ladder;
      ] );
    ( "governor.backoff",
      [
        Alcotest.test_case "deterministic and capped" `Quick test_backoff_deterministic_and_capped;
        QCheck_alcotest.to_alcotest qcheck_backoff_properties;
      ] );
    ( "governor.shedding",
      [
        Alcotest.test_case "sheds the pin and recovers" `Quick
          test_shedding_evicts_the_pin_and_recovers;
        Alcotest.test_case "grace protects young victims" `Quick
          test_grace_period_protects_young_victims;
        Alcotest.test_case "emergency backpressure assists" `Quick
          test_backpressure_assists_on_relocate;
        Alcotest.test_case "quota sabotage caught" `Quick
          test_quota_sabotage_is_caught_by_the_invariant;
        Alcotest.test_case "ungoverned records no checkpoint" `Quick
          test_ungoverned_runs_record_no_checkpoint;
        QCheck_alcotest.to_alcotest qcheck_space_within_quota_after_maintain;
      ] );
    ( "governor.runner",
      [
        Alcotest.test_case "governed storm run reproducible" `Slow
          test_governed_storm_run_reproducible;
      ] );
  ]
