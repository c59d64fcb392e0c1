(* Liveness watchdog tests (DESIGN §4e): the escalation ladder's unit
   behaviour and honesty replay, lease expiry and the no-false-kill
   journal, gated liveness draws in Fault_plan (classic streams must be
   preserved bit-for-bit), end-to-end zombie containment and the
   bounded-reclamation-lag guarantee through the runner (the honest
   run inside the bound and its [no-watchdog] sabotage twin outside it
   are a row of the sabotage registry, test_sabotage), the watchdog-off
   bit-identity guarantee, and a real
   multi-domain collaboration stress with the cutter delayed inside
   exactly the window the [Collab_delay] fault stretches. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -------------------------------------------------------------------- *)
(* Watchdog ladder units *)

let wcfg =
  {
    Watchdog.default_config with
    Watchdog.check_period = Clock.ms 5;
    stall_timeout = Clock.ms 25;
    escalation_cooldown = Clock.ms 10;
  }

(* Stub actions with call counters; [zombie_count] injects the health
   signal. *)
let counting_actions ?(zombie_count = fun ~now:_ -> 0) () =
  let nudges = ref 0 and restarts = ref 0 and syncs = ref 0 and sheds = ref 0 in
  let actions =
    {
      Watchdog.nudge = (fun ~now:_ -> incr nudges);
      restart_cleaners = (fun ~now:_ -> incr restarts);
      sync_reclaim = (fun ~now:_ -> incr syncs);
      shed_zombies = (fun ~max ~now:_ -> incr sheds; min max 1);
      zombie_count;
    }
  in
  (actions, nudges, restarts, syncs, sheds)

let test_ladder_escalates_and_recovers () =
  let w = Watchdog.create ~config:wcfg () in
  let actions, nudges, restarts, syncs, sheds = counting_actions () in
  Watchdog.register w "cleaner" ~now:0;
  Watchdog.beat w "cleaner" ~now:0;
  (* Within the timeout: healthy, no action. *)
  Watchdog.poll w ~now:(Clock.ms 20) ~actions;
  check_bool "healthy below timeout" true (Watchdog.rung w = Watchdog.Healthy);
  check_int "no nudge yet" 0 !nudges;
  (* Past the timeout: one rung per cooldown dwell, immediate from
     Healthy, and the actions are cumulative while unhealthy. *)
  Watchdog.poll w ~now:(Clock.ms 30) ~actions;
  check_bool "first unhealthy poll escalates to Nudge" true (Watchdog.rung w = Watchdog.Nudge);
  check_int "nudged" 1 !nudges;
  Watchdog.poll w ~now:(Clock.ms 35) ~actions;
  check_bool "cooldown dwell holds the rung" true (Watchdog.rung w = Watchdog.Nudge);
  check_int "nudge repeats while unhealthy" 2 !nudges;
  Watchdog.poll w ~now:(Clock.ms 45) ~actions;
  check_bool "second rung" true (Watchdog.rung w = Watchdog.Restart);
  check_int "restart ran" 1 !restarts;
  check_int "nudge still runs below it" 3 !nudges;
  Watchdog.poll w ~now:(Clock.ms 60) ~actions;
  check_bool "third rung" true (Watchdog.rung w = Watchdog.Sync_reclaim);
  check_int "sync reclaim ran" 1 !syncs;
  Watchdog.poll w ~now:(Clock.ms 75) ~actions;
  check_bool "top rung" true (Watchdog.rung w = Watchdog.Shed);
  check_int "shed ran" 1 !sheds;
  check_int "four escalations" 4 (Watchdog.escalations w);
  check_bool "stall magnitude observed" true (Watchdog.max_stall_observed w >= Clock.ms 50);
  (* The cleaner comes back: one rung down per healthy poll, and no
     action runs on the way down. *)
  Watchdog.beat w "cleaner" ~now:(Clock.ms 76);
  let before = (!nudges, !restarts, !syncs, !sheds) in
  let rec descend t =
    if Watchdog.rung w <> Watchdog.Healthy then begin
      Watchdog.poll w ~now:t ~actions;
      descend (t + Clock.ms 5)
    end
  in
  descend (Clock.ms 80);
  check_bool "healthy polls run no action" true (before = (!nudges, !restarts, !syncs, !sheds));
  check_int "ladder log replays clean" 0 (List.length (Watchdog.check_ladder w))

let test_zombies_alone_drive_the_ladder () =
  let w = Watchdog.create ~config:wcfg () in
  let actions, _, _, _, _ = counting_actions ~zombie_count:(fun ~now:_ -> 1) () in
  Watchdog.register w "cleaner" ~now:0;
  let rec climb t =
    Watchdog.beat w "cleaner" ~now:t;
    (* never stalled *)
    Watchdog.poll w ~now:t ~actions;
    if Watchdog.rung w <> Watchdog.Shed && t < Clock.ms 200 then climb (t + Clock.ms 5)
  in
  climb (Clock.ms 5);
  check_bool "zombies escalate to Shed without any stall" true (Watchdog.rung w = Watchdog.Shed);
  check_bool "cancels counted" true (Watchdog.zombie_cancels w > 0);
  check_int "ladder log replays clean" 0 (List.length (Watchdog.check_ladder w))

let test_disabled_watchdog_observes_but_never_acts () =
  let w = Watchdog.create ~config:{ wcfg with Watchdog.enabled = false } () in
  let actions, nudges, restarts, syncs, sheds = counting_actions () in
  Watchdog.register w "cleaner" ~now:0;
  List.iter (fun i -> Watchdog.poll w ~now:(Clock.ms (30 + (5 * i))) ~actions) (List.init 10 Fun.id);
  check_bool "rung pinned at Healthy" true (Watchdog.rung w = Watchdog.Healthy);
  check_int "no escalations" 0 (Watchdog.escalations w);
  check_bool "no action ever ran" true ((0, 0, 0, 0) = (!nudges, !restarts, !syncs, !sheds));
  check_bool "stall still observed" true (Watchdog.max_stall_observed w > Clock.ms 25)

let test_unwatched_source_never_stalls () =
  let w = Watchdog.create ~config:wcfg () in
  Watchdog.register ~watch:false w "checkpointer" ~now:0;
  Watchdog.beat w "checkpointer" ~now:0;
  check_bool "counter still recorded" true (Watchdog.progress w "checkpointer" = 1);
  check_bool "exempt from stall detection" true
    (Watchdog.stalled_sources w ~now:(Clock.seconds 10.) = []);
  Watchdog.beat w "late-registrant" ~now:0;
  check_bool "beat auto-registers watched" true
    (Watchdog.stalled_sources w ~now:(Clock.seconds 10.) = [ "late-registrant" ])

let test_config_validation_and_bound () =
  (match Watchdog.create ~config:{ wcfg with Watchdog.check_period = 0 } () with
  | _ -> Alcotest.fail "zero check period must raise"
  | exception Invalid_argument _ -> ());
  let bound c = Watchdog.lag_bound c ~gc_period:(Clock.ms 10) in
  check_bool "bound positive" true (bound wcfg > 0);
  check_bool "bound grows with the stall timeout" true
    (bound { wcfg with Watchdog.stall_timeout = Clock.ms 250 } > bound wcfg);
  check_bool "bound grows with the cooldown" true
    (bound { wcfg with Watchdog.escalation_cooldown = Clock.ms 100 } > bound wcfg)

(* -------------------------------------------------------------------- *)
(* Leases and no-false-kill *)

let lcfg = { Lease.short_lease = Clock.ms 10; llt_lease = Clock.ms 100 }

let test_lease_expiry_and_progress () =
  let l = Lease.create ~config:lcfg () in
  Lease.grant l ~tid:1 ~kind:Lease.Short ~now:0;
  Lease.grant l ~tid:2 ~kind:Lease.Llt ~now:0;
  check_bool "nothing expired early" true (Lease.expired l ~now:(Clock.ms 5) = []);
  check_bool "short expires first" true (Lease.expired l ~now:(Clock.ms 11) = [ 1 ]);
  Lease.note_progress l ~tid:1 ~now:(Clock.ms 11);
  check_bool "progress resets the clock" true (Lease.expired l ~now:(Clock.ms 20) = []);
  check_bool "both expire eventually, ascending" true
    (Lease.expired l ~now:(Clock.ms 150) = [ 1; 2 ]);
  Lease.release l ~tid:1;
  check_bool "release removes" true (Lease.expired l ~now:(Clock.ms 150) = [ 2 ]);
  check_int "one live lease" 1 (Lease.live l);
  check_int "two grants" 2 (Lease.grants l);
  check_bool "llt lease visible" true (Lease.lease_of l ~tid:2 = Some (Clock.ms 100));
  check_bool "idle visible" true (Lease.idle l ~tid:2 ~now:(Clock.ms 150) = Some (Clock.ms 150))

let test_no_false_kill_journal () =
  let l = Lease.create ~config:lcfg () in
  (* An honest cancel: idle well past the lease. *)
  Lease.grant l ~tid:7 ~kind:Lease.Short ~now:0;
  Lease.note_cancel l ~tid:7 ~now:(Clock.ms 50);
  check_int "honest cancel passes" 0 (List.length (Invariant.check_no_false_kill l));
  (* A false kill: the victim made progress within its lease. *)
  Lease.grant l ~tid:8 ~kind:Lease.Short ~now:(Clock.ms 60);
  Lease.note_progress l ~tid:8 ~now:(Clock.ms 64);
  Lease.note_cancel l ~tid:8 ~now:(Clock.ms 67);
  (match Invariant.check_no_false_kill l with
  | [ v ] ->
      check_bool "named invariant" true (v.Invariant.invariant = "no-false-kill");
      check_bool "journalled" true (Lease.cancel_count l = 2)
  | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs))

(* -------------------------------------------------------------------- *)
(* Fault-plan gating: liveness draws must not perturb classic streams *)

let drain_grid plan =
  let plan = Fault_plan.cursor plan in
  List.concat_map
    (fun i ->
      let now = Clock.ms (10 * i) in
      List.map (fun a -> (now, a)) (Fault_plan.poll plan ~now))
    (List.init 400 Fun.id)

let is_liveness = function
  | Fault_plan.Cleaner_stall | Fault_plan.Llt_zombie | Fault_plan.Collab_delay -> true
  | _ -> false

let test_liveness_draws_gated_and_stream_preserving () =
  let classic = drain_grid (Fault_plan.random ~seed:31 ()) in
  check_bool "no liveness events without the flags" true
    (List.for_all (fun (_, a) -> not (is_liveness a)) classic);
  let armed () = Fault_plan.random ~stalls:true ~zombies:true ~seed:31 () in
  let full = drain_grid (armed ()) in
  check_bool "deterministic per seed" true (full = drain_grid (armed ()));
  check_bool "classic stream preserved bit-for-bit" true
    (List.filter (fun (_, a) -> not (is_liveness a)) full = classic);
  let count p = List.length (List.filter (fun (_, a) -> p a) full) in
  check_bool "stalls drawn" true (count (( = ) Fault_plan.Cleaner_stall) > 0);
  check_bool "collab delays drawn" true (count (( = ) Fault_plan.Collab_delay) > 0);
  check_bool "zombies drawn" true (count (( = ) Fault_plan.Llt_zombie) > 0)

(* -------------------------------------------------------------------- *)
(* End-to-end through the runner *)

let tiny_schema =
  { Schema.default with Schema.tables = 2; rows_per_table = 100; record_bytes = 64 }

let liveness_cfg ?(seed = 11) ?(duration_s = 1.5) () =
  {
    Exp_config.default with
    Exp_config.name = "liveness-test";
    seed;
    duration_s;
    workers = 4;
    reads_per_txn = 2;
    writes_per_txn = 1;
    schema = tiny_schema;
    llts = [ { Exp_config.start_s = 0.1; duration_s = duration_s -. 0.3; count = 1 } ];
    sample_period_s = 0.25;
    gc_period = Clock.ms 5;
  }

let vdriver schema = Siro_engine.create ~flavor:`Pg schema

let run_wdog = { wcfg with Watchdog.stall_timeout = Clock.ms 20 }

let test_zombie_cancelled_end_to_end () =
  let plan = Fault_plan.create ~seed:3 ~llt_zombie_rate:3. ~check_period:(Clock.ms 20) () in
  let r = Runner.run ~engine:vdriver ~faults:plan ~watchdog:run_wdog (liveness_cfg ()) in
  check_bool "zombie LLT was cancelled" true (r.Runner.zombie_cancels > 0);
  check_bool "ladder climbed to do it" true (r.Runner.watchdog_escalations > 0);
  check_bool "no violation (incl. no-false-kill)" true (Fault_report.ok r.Runner.faults)

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

let test_watchdog_off_bit_identity () =
  (* Liveness injections only bite in armed runs: a plan carrying only
     stall/zombie/delay events leaves an unarmed run bit-identical to a
     bare one, and the liveness result fields stay at their zeros. *)
  let cfg = liveness_cfg ~seed:29 ~duration_s:0.6 () in
  let bare = Runner.run ~engine:vdriver cfg in
  let unarmed =
    Runner.run ~engine:vdriver
      ~faults:
        (Fault_plan.create ~seed:29 ~cleaner_stall_rate:3. ~llt_zombie_rate:2.
           ~collab_delay_rate:3. ())
      cfg
  in
  check_bool "unarmed liveness faults leave the run bit-identical" true
    (comparable bare = comparable unarmed);
  check_int "no cancels" 0 unarmed.Runner.zombie_cancels;
  check_int "no escalations" 0 unarmed.Runner.watchdog_escalations;
  check_int "no lag observed" 0 unarmed.Runner.max_reclamation_lag;
  check_int "empty lag histogram" 0 (Histogram.total unarmed.Runner.reclamation_lag_us);
  (* And arming with identical runs is reproducible. *)
  let armed () =
    Runner.run ~engine:vdriver
      ~faults:(Fault_plan.random ~stalls:true ~zombies:true ~seed:29 ())
      ~watchdog:run_wdog cfg
  in
  let a = armed () and b = armed () in
  check_bool "armed runs reproducible" true (comparable a = comparable b);
  check_int "same escalations" a.Runner.watchdog_escalations b.Runner.watchdog_escalations

(* -------------------------------------------------------------------- *)
(* Multi-domain collaboration stress under Collab_delay *)

let busy n = for _ = 1 to n do Domain.cpu_relax () done

(* One contended episode: the cutter (own domain) races the sorter,
   dawdling [delay] iterations inside the install→completion window —
   exactly what the Collab_delay fault stretches. The sorter gets a
   tiny spin budget so long waits exercise the yield fallback. *)
let episode ~delay ~head_start =
  let c = Collab.create () in
  let deleted = Atomic.make 0 and inserted = Atomic.make 0 in
  let cutter_domain =
    Domain.spawn (fun () ->
        Collab.cutter c ~delay:(fun () -> busy delay)
          ~delete:(fun () -> Atomic.incr deleted)
          ~fixup:(fun () -> ()))
  in
  busy head_start;
  let outcome =
    Collab.sorter ~spin_budget:32 c
      ~delete:(fun () -> Atomic.incr deleted)
      ~insert:(fun () -> Atomic.incr inserted)
  in
  let cutter_outcome = Domain.join cutter_domain in
  check_int "dead version deleted exactly once" 1 (Atomic.get deleted);
  check_int "insertion happened exactly once" 1 (Atomic.get inserted);
  (match (outcome, cutter_outcome) with
  | `Did_both, `Lost | `Inserted_after_cutter, `Won -> ()
  | `Did_both, `Won -> Alcotest.fail "both sides claim the deletion"
  | `Inserted_after_cutter, `Lost -> Alcotest.fail "nobody claims the deletion");
  outcome

let qcheck_collab_delay_stress =
  QCheck.Test.make ~name:"multi-domain collab: exactly-once under cutter delay x contention"
    ~count:6
    QCheck.(pair (make Gen.(0 -- 3000)) (make Gen.(0 -- 500)))
    (fun (delay, head_start) ->
      (* A loss does not imply a wait (the cutter may have finished
         before the sorter's test-and-set), so the racy stress asserts
         only the exactly-once protocol; the guaranteed-wait case is
         pinned deterministically below. *)
      for _ = 1 to 40 do
        ignore (episode ~delay ~head_start)
      done;
      true)

let test_collab_yield_fallback_under_long_delay () =
  (* Deterministic handshake: the cutter holds its critical window open
     until the sorter has provably exhausted its spin budget and
     yielded — no timing luck involved. *)
  Collab.reset_spin_stats ();
  let c = Collab.create () in
  let deleted = Atomic.make 0 and inserted = Atomic.make 0 in
  let installed = Atomic.make false and sorter_yielding = Atomic.make false in
  let cutter_domain =
    Domain.spawn (fun () ->
        Collab.cutter c
          ~delay:(fun () ->
            Atomic.set installed true;
            while not (Atomic.get sorter_yielding) do Domain.cpu_relax () done)
          ~delete:(fun () -> Atomic.incr deleted)
          ~fixup:(fun () -> ()))
  in
  (* Wait until the cutter is inside install -> completion, so the
     sorter is guaranteed to lose the race and spin. *)
  while not (Atomic.get installed) do Domain.cpu_relax () done;
  let outcome =
    Collab.sorter ~spin_budget:32
      ~yield:(fun () -> Atomic.set sorter_yielding true)
      c
      ~delete:(fun () -> Atomic.incr deleted)
      ~insert:(fun () -> Atomic.incr inserted)
  in
  check_bool "cutter won" true (Domain.join cutter_domain = `Won);
  check_bool "sorter inserted after the cutter" true (outcome = `Inserted_after_cutter);
  check_int "deleted exactly once" 1 (Atomic.get deleted);
  check_int "inserted exactly once" 1 (Atomic.get inserted);
  check_bool "spin gauge advanced" true (Collab.max_spin_observed () > 0);
  check_bool "budget exhaustion fell back to yield" true (Collab.yields_observed () > 0)

let suites =
  [
    ( "liveness.watchdog",
      [
        Alcotest.test_case "ladder escalates and recovers" `Quick test_ladder_escalates_and_recovers;
        Alcotest.test_case "zombies alone drive the ladder" `Quick test_zombies_alone_drive_the_ladder;
        Alcotest.test_case "disabled observes, never acts" `Quick
          test_disabled_watchdog_observes_but_never_acts;
        Alcotest.test_case "unwatched source never stalls" `Quick test_unwatched_source_never_stalls;
        Alcotest.test_case "config validation and lag bound" `Quick test_config_validation_and_bound;
      ] );
    ( "liveness.lease",
      [
        Alcotest.test_case "expiry, progress, release" `Quick test_lease_expiry_and_progress;
        Alcotest.test_case "no-false-kill journal" `Quick test_no_false_kill_journal;
      ] );
    ( "liveness.plan",
      [
        Alcotest.test_case "gated draws preserve classic streams" `Quick
          test_liveness_draws_gated_and_stream_preserving;
      ] );
    ( "liveness.runner",
      [
        Alcotest.test_case "zombie LLT cancelled end-to-end" `Slow test_zombie_cancelled_end_to_end;
        Alcotest.test_case "watchdog-off bit-identity" `Slow test_watchdog_off_bit_identity;
      ] );
    ( "liveness.collab",
      [
        QCheck_alcotest.to_alcotest qcheck_collab_delay_stress;
        Alcotest.test_case "yield fallback under long delay" `Quick
          test_collab_yield_fallback_under_long_delay;
      ] );
  ]
