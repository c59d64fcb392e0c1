type result = {
  engine_name : string;
  throughput : (float * float) list;
  version_space : (float * float) list;
  redo : (float * float) list;
  max_chain : (float * float) list;
  splits : (float * float) list;
  chain_cdf : (int * float) list;
  latency_us : Histogram.t;  (* committed-transaction latency, 10 us buckets *)
  commits : int;
  conflicts : int;
  llt_reads : int;
  truncations : int;
  latch_wait : Clock.time;
  cut_delays : (Vclass.t * Clock.time) list;
  driver : Driver.t option;
  faults : Fault_report.t;
  wal_errors : int;
  retries : int;
  give_ups : int;
  sheds : int;
  crashes : int;
  recoveries : Engine.restart_info list;
  zombie_cancels : int;
  watchdog_escalations : int;
  max_reclamation_lag : Clock.time;
  reclamation_lag_us : Histogram.t;  (* per-segment reclaim lag, 50 us buckets *)
  digest : Run_digest.t;
}

type mode = Substrate.mode = Sim | Domains of { domains : int }

let peak_of = Process_set.peak_of
let final_of xs = match List.rev xs with (_, v) :: _ -> int_of_float v | [] -> 0

let run ~engine ?faults ?watchdog ?(mode = Sim) (cfg : Exp_config.t) =
  let eng, wd, (st : Process_set.stats) = Process_set.single ~engine ~faults ~watchdog ~mode cfg in
  let report = st.Process_set.report and final = st.Process_set.final in
  let driver = eng.Engine.driver in
  let watchdog_count f = Option.fold ~none:0 ~some:f wd in
  let sheds = Option.fold ~none:0 ~some:(fun d -> Governor.sheds (Driver.governor d)) driver in
  let max_reclamation_lag = Option.fold ~none:0 ~some:Invariant.max_lag st.Process_set.lag in
  let lag_histogram =
    match st.Process_set.lag with
    | Some m -> Invariant.lag_histogram m
    | None -> Histogram.create ~bucket_width:50 ()
  in
  let commits = Series.Rate.total st.Process_set.commit_rate in
  let tput =
    if cfg.Exp_config.duration_s > 0. then float_of_int commits /. cfg.Exp_config.duration_s
    else 0.
  in
  let space = Series.to_list st.Process_set.space in
  let latency_us = st.Process_set.latency_us in
  let pctl h p = if Histogram.total h = 0 then 0 else Histogram.percentile h p in
  let completeness =
    Option.map
      (fun d ->
        let s = Driver.stats d in
        let pruned = Prune_stats.prune1_total s + Prune_stats.prune2_total s in
        let settled = pruned + Prune_stats.stored_total s in
        if settled = 0 then 1. else float_of_int pruned /. float_of_int settled)
      driver
  in
  (* Headline gauges for the metrics snapshot (the BENCH_obs / golden
     surface): every traced run exports these whether or not the hot
     paths fed their histograms, so the schema's required keys are
     always present. *)
  (match Metrics.in_scope () with
  | None -> ()
  | Some reg ->
      Option.iter
        (fun w ->
          Metrics.set_gauge "watchdog.escalations" (float_of_int (Watchdog.escalations w));
          Metrics.set_gauge "watchdog.zombie_cancels" (float_of_int (Watchdog.zombie_cancels w));
          Metrics.set_gauge "watchdog.max_reclamation_lag_us"
            (float_of_int (max_reclamation_lag / 1000)))
        wd;
      Metrics.set_gauge "txn.throughput" tput;
      let scan = Metrics.histogram reg "scan.chain_length" in
      Metrics.set_gauge "scan.p50" (float_of_int (pctl scan 0.5));
      Metrics.set_gauge "scan.p99" (float_of_int (pctl scan 0.99));
      Metrics.set_gauge "space.peak_bytes" (float_of_int (peak_of space));
      Metrics.set_gauge "space.final_bytes" (float_of_int final.Engine.version_bytes);
      Metrics.set_gauge "txn.latency_p50_us" (float_of_int (pctl latency_us 0.5));
      Metrics.set_gauge "txn.latency_p99_us" (float_of_int (pctl latency_us 0.99));
      Metrics.set_gauge "prune.completeness" (Option.value completeness ~default:0.));
  let cdf = Histogram.cdf (eng.Engine.chain_histogram ()) in
  let max_holes = ref 0 and holey_chains = ref 0 in
  Option.iter
    (fun d ->
      Llb.iter d.State.llb (fun chain ->
          let h = Chain.holes chain in
          max_holes := max !max_holes h;
          if h > 0 then incr holey_chains))
    driver;
  (* The run's counter table: every row lands in the report, and the
     Sim-vs-Domains comparison reads the rules. Tolerances are
     calibrated against the differential qcheck matrix
     (test_differential): real interleaving shifts conflict/retry counts
     a lot and the volume/space counters a little; a lost publication
     shifts commits by a worker's whole output, far past any of these.
     Peak space is the spikiest row (one extra LLT-pinned segment riding
     through a space-storm burst doubles the transient peak), so its
     band, like every band with rel >= 1, admits any two non-negative
     values. *)
  let digest =
    let open Run_digest in
    let space_tol = Within (1.0, 65536.) and chain = Within (1.0, 12.) in
    let latency = Within (0.75, 60.) in
    let cdf_pctl p = Option.fold ~none:0 ~some:fst (List.find_opt (fun (_, f) -> f >= p) cdf) in
    let prune f = Option.fold ~none:0 ~some:(fun d -> f (Driver.stats d)) driver in
    [
      str "mode" (match mode with Sim -> "sim" | Domains _ -> "domains");
      int "domains" (match mode with Sim -> 1 | Domains { domains } -> domains);
      (* The backend identity is part of the experiment, not a
         statistic. *)
      str ~rule:Exact "gc_backend"
        (Option.fold ~none:"vcutter" ~some:Driver.gc_backend_name driver);
      int ~rule:(Within (0.20, 400.)) "commits" commits;
      int ~rule:(Within (2.0, 150.)) "conflicts" st.Process_set.conflicts;
      int ~rule:(Within (0.25, 400.)) "llt_reads" st.Process_set.llt_reads;
      int ~rule:(Within (2.0, 60.)) "retries" st.Process_set.retries;
      int ~rule:(Within (2.0, 25.)) "give_ups" st.Process_set.give_ups;
      int ~rule:(Within (2.0, 25.)) "sheds" sheds;
      int ~rule:(Within (2.0, 80.)) "wal_errors" final.Engine.wal_errors;
      int "faults_injected"
        (List.fold_left (fun acc (_, n) -> acc + n) 0 (Fault_report.faults_injected report));
      int ~rule:Zero "invariant_violations" (Fault_report.violation_count report);
      int ~rule:space_tol "peak_space" (peak_of space);
      int ~rule:space_tol "final_space" (final_of space);
      int ~rule:chain "peak_chain" (peak_of (Series.to_list st.Process_set.chain));
      (* Relocation volume tracks maintenance work; completeness is the
         prune-soundness headline; a negative in-flight residue means
         prune counters were lost. *)
      int ~rule:space_tol "prune_relocated" (prune Prune_stats.relocated);
      int ~rule:(At_least 0) "prune_in_flight" (prune Prune_stats.in_flight);
      float ~rule:(Within (0., 0.25)) "prune_completeness" (Option.value completeness ~default:1.);
      (* SIRO chains carry at most one hole. *)
      int ~rule:(At_most 1) "max_holes" !max_holes;
      int "holey_chains" !holey_chains;
      float "avg_throughput" tput;
      int ~rule:latency "latency_p50_us" (pctl latency_us 0.5);
      int ~rule:latency "latency_p99_us" (pctl latency_us 0.99);
      int ~rule:chain "chain_p50" (cdf_pctl 0.5);
      int ~rule:chain "chain_p99" (cdf_pctl 0.99);
    ]
    @ (match st.Process_set.lag with
      | None -> []
      | Some _ ->
          [
            int ~rule:(Within (2.0, 100_000.)) "max_reclamation_lag_us"
              (max_reclamation_lag / 1000);
            int "lag_samples" (Histogram.total lag_histogram);
          ])
    @ recovery ~crashes:st.Process_set.crashes st.Process_set.recoveries
    @ (match wd with
      | None -> []
      | Some w ->
          [
            int "watchdog.escalations" (Watchdog.escalations w);
            int "watchdog.nudges" (Watchdog.nudges w);
            int "watchdog.zombie_cancels" (Watchdog.zombie_cancels w);
            int "watchdog.max_stall_us" (Watchdog.max_stall_observed w / 1000);
          ])
    @
    match driver with
    | Some { State.gc_backend = Some h; _ } ->
        List.map (fun (k, n) -> int k n) (h.State.gh_gauges ())
    | _ -> []
  in
  Run_digest.publish report digest;
  {
    engine_name = eng.Engine.name;
    throughput = Series.Rate.per_second st.Process_set.commit_rate;
    version_space = space;
    redo = Series.to_list st.Process_set.redo;
    max_chain = Series.to_list st.Process_set.chain;
    splits = Series.to_list st.Process_set.splits;
    chain_cdf = cdf;
    latency_us;
    commits;
    conflicts = st.Process_set.conflicts;
    llt_reads = st.Process_set.llt_reads;
    truncations = final.Engine.truncations;
    latch_wait = final.Engine.latch_wait;
    cut_delays =
      Option.fold ~none:[] ~some:(fun d -> Version_store.cut_delays (Driver.store d)) driver;
    driver;
    faults = report;
    wal_errors = final.Engine.wal_errors;
    retries = st.Process_set.retries;
    give_ups = st.Process_set.give_ups;
    sheds;
    crashes = st.Process_set.crashes;
    recoveries = st.Process_set.recoveries;
    zombie_cancels = watchdog_count Watchdog.zombie_cancels;
    watchdog_escalations = watchdog_count Watchdog.escalations;
    max_reclamation_lag;
    reclamation_lag_us = lag_histogram;
    digest;
  }

let avg_throughput r ~between:(lo, hi) =
  let xs =
    List.filter_map (fun (t, v) -> if t >= lo && t <= hi then Some v else None) r.throughput
  in
  Stats.mean xs

let final_space r = final_of r.version_space
let peak_space r = peak_of r.version_space
let peak_chain r = peak_of r.max_chain
