(* Liveness point (DESIGN §4e — beyond the paper's figures): the
   bounded-reclamation-lag guarantee under stall pressure.

   Sweep the cleaner-stall injection rate with the watchdog armed and
   report the per-segment reclamation-lag distribution (p50/p99/max)
   against the computable bound L, plus the escalation and zombie-shed
   work the ladder performed to stay inside it. The zombie rate is held
   fixed so every point also exercises the lease/shed path. Exported as
   BENCH_liveness.json. Gates: [clean] (0 violations), [lag_within_bound]
   (max lag <= L), [zombies_shed] (zombie cancels > 0) at every point,
   and [escalations_grow] (non-decreasing in the stall rate). *)

let liveness_cfg =
  Sweep.workload ~name:"bench-liveness" ~duration_s:4. ~llt_start:0.5 ~llt_s:3. ~llts:1

let wdog =
  {
    Watchdog.default_config with
    Watchdog.check_period = Clock.ms 5;
    stall_timeout = Clock.ms 20;
    escalation_cooldown = Clock.ms 10;
  }

let point stall_rate =
  let plan =
    Fault_plan.create
      ~seed:(liveness_cfg.Exp_config.seed lxor 0x11fe)
      ~cleaner_stall_rate:stall_rate ~collab_delay_rate:(stall_rate *. 2.)
      ~llt_zombie_rate:2. ~check_period:(Clock.ms 50) ()
  in
  let engine schema = Siro_engine.create ~flavor:`Pg schema in
  Runner.run ~engine ~faults:plan ~watchdog:wdog liveness_cfg

let bound = Watchdog.lag_bound wdog ~gc_period:liveness_cfg.Exp_config.gc_period

let pctl r p =
  let hist = r.Runner.reclamation_lag_us in
  if Histogram.total hist = 0 then 0 else Histogram.percentile hist p

let sweep =
  {
    Sweep.name = "liveness";
    title = "Reclamation lag vs stall pressure";
    expectation =
      Printf.sprintf
        "with the watchdog armed, every dead version is reclaimed within the computable \
         bound L=%dus regardless of how often the cleaner hangs; the lag tail grows with the \
         stall rate but never crosses L, and harmful zombie LLTs are shed through the lease \
         path"
        (bound / 1000);
    points = [ 0.; 0.5; 1.; 2. ];
    run = point;
    columns =
      [
        ("stall_rate_per_s", fun rate _ -> Jsonx.Float rate);
        ("commits", fun _ r -> Jsonx.Int r.Runner.commits);
        ("escalations", fun _ r -> Jsonx.Int r.Runner.watchdog_escalations);
        ("zombie_cancels", fun _ r -> Jsonx.Int r.Runner.zombie_cancels);
        ("lag_p50_us", fun _ r -> Jsonx.Int (pctl r 0.5));
        ("lag_p99_us", fun _ r -> Jsonx.Int (pctl r 0.99));
        ("lag_max_us", fun _ r -> Jsonx.Int (r.Runner.max_reclamation_lag / 1000));
        ("lag_samples", fun _ r -> Jsonx.Int (Histogram.total r.Runner.reclamation_lag_us));
        ("bound_us", fun _ _ -> Jsonx.Int (bound / 1000));
        ("violations", fun _ r -> Jsonx.Int (Fault_report.violation_count r.Runner.faults));
      ];
    fields =
      (fun _ -> [ ("engine", Jsonx.Str "pg-vdriver"); ("bound_us", Jsonx.Int (bound / 1000)) ]);
    gates =
      [
        ("clean", Sweep.every (fun _ r -> Fault_report.violation_count r.Runner.faults = 0));
        ("lag_within_bound", Sweep.every (fun _ r -> r.Runner.max_reclamation_lag <= bound));
        ("zombies_shed", Sweep.every (fun _ r -> r.Runner.zombie_cancels > 0));
        (* The fixed zombie rate escalates on its own, so the 0/s point
           starts above zero; more stalls must never mean fewer. *)
        ( "escalations_grow",
          fun results ->
            Sweep.non_decreasing (List.map (fun (_, r) -> r.Runner.watchdog_escalations) results)
        );
      ];
    points_key = "points";
  }
