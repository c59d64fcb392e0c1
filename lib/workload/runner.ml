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

(* A process that can hold an open transaction: an OLTP worker or an LLT
   driver. The fault injector and the governor take its transaction
   away from outside; the owner then backs off before new work. *)
type slot = {
  llt : bool;
  backoff : Backoff.t;
  mutable txn : Txn.t option;
  mutable killed : bool; (* taken from outside: back off before new work *)
  mutable zombie : bool; (* hung LLT: keeps its snapshot, issues nothing *)
}

let peak_of xs = List.fold_left (fun acc (_, v) -> max acc (int_of_float v)) 0 xs
let final_of xs = match List.rev xs with (_, v) :: _ -> int_of_float v | [] -> 0

let run ~engine ?faults ?watchdog ?(mode = Sim) (cfg : Exp_config.t) =
  Substrate.require ~who:"Runner.run" mode
    [
      ( Substrate.Crash_faults,
        match faults with
        | Some plan -> Fault_plan.crash_points plan <> [] || Fault_plan.torn_tail plan
        | None -> false );
      (Substrate.Watchdog, watchdog <> None);
      (Substrate.Obs_export, Trace.on () || Metrics.in_scope () <> None);
    ];
  (match faults with
  | Some plan
    when List.exists
           (function Fault_plan.Node_kill | Fault_plan.Node_revive -> true | _ -> false)
           (Fault_plan.actions plan) ->
      invalid_arg "Runner.run: node kills and revives need replicated shards (Shard_runner)"
  | _ -> ());
  Failpoint.with_scope @@ fun () ->
  let eng = engine cfg.Exp_config.schema in
  let sub = Substrate.create mode in
  let crash_faults = Substrate.supports mode Substrate.Crash_faults in
  let direct_lag = Substrate.supports mode Substrate.Direct_lag_monitor in
  let master_rng = Rng.create cfg.Exp_config.seed in
  let horizon = Clock.seconds cfg.Exp_config.duration_s in
  let commit_rate = Series.Rate.create ~bucket:1.0 () in
  let latency_us = Histogram.create ~bucket_width:10 () in
  let conflicts = ref 0 in
  let llt_reads = ref 0 in
  let retries = ref 0 in
  let give_ups = ref 0 in
  let report = Fault_report.create () in
  (* Every slot, in spawn order (workers, then LLT drivers), so victim
     selection is deterministic. *)
  let slots : slot Vec.t = Vec.create () in
  let crashes = ref 0 in
  let recoveries = ref [] in
  (* The slot holding each in-flight transaction, for the governor's
     snapshot-too-old policy: the shed hook rolls the victim back
     through the engine (undoing its writes) rather than behind its
     back. *)
  let shed_tbl : (Timestamp.t, slot) Hashtbl.t = Hashtbl.create 64 in
  (* Liveness containment, armed only when a watchdog configuration is
     passed. The default run allocates no watchdog, grants no lease,
     spawns no extra process and reads no extra randomness, so it stays
     bit-identical to the seed. *)
  let wd = Option.map (fun wcfg -> Watchdog.create ~config:wcfg ()) watchdog in
  let liveness_armed = wd <> None in
  let lease =
    match wd with
    | None -> None
    | Some _ ->
        (* Leases scale with the experiment: short transactions finish
           within one scheduling step, so their lease only has to cover
           scheduling jitter; LLTs are granted a tenth of the longest
           declared lifetime — far beyond any healthy read gap, so only
           a driver that genuinely stopped can expire. *)
        let short_lease =
          max (Clock.ms 10) (Clock.seconds (cfg.Exp_config.duration_s /. 200.))
        in
        let longest_llt_s =
          List.fold_left
            (fun acc (spec : Exp_config.llt_spec) -> Float.max acc spec.Exp_config.duration_s)
            0. cfg.Exp_config.llts
        in
        let llt_lease = max (4 * short_lease) (Clock.seconds (longest_llt_s /. 10.)) in
        Some (Lease.create ~config:{ Lease.short_lease; llt_lease } ())
  in
  (* The cleaning loop makes no progress until this instant — set by
     [Cleaner_stall]/[Collab_delay] injections, cleared by the
     watchdog's restart rung. 0 (never) outside stall campaigns. *)
  let cleaner_stall_until = ref 0 in
  (* Externally-aborted transactions (forced aborts, governor sheds)
     re-execute after a bounded-exponential backoff. Each slot owns a
     backoff state seeded independently of the workload streams, so a
     run that kills nobody draws nothing and stays bit-identical. *)
  let new_slot ~llt salt =
    let backoff =
      Backoff.create ~base_ns:(Clock.us 200) ~cap_ns:(Clock.ms 20) ~max_attempts:6
        (Rng.create (cfg.Exp_config.seed lxor salt))
    in
    let s = { llt; backoff; txn = None; killed = false; zombie = false } in
    Vec.push slots s;
    s
  in
  let begin_in s ~kind now =
    let txn, t = eng.Engine.begin_txn ~now in
    s.txn <- Some txn;
    Hashtbl.replace shed_tbl txn.Txn.tid s;
    (match lease with Some l -> Lease.grant l ~tid:txn.Txn.tid ~kind ~now | None -> ());
    Scheduler.Sleep_until t
  in
  let release s txn =
    s.txn <- None;
    Hashtbl.remove shed_tbl txn.Txn.tid;
    match lease with Some l -> Lease.release l ~tid:txn.Txn.tid | None -> ()
  in
  (* Take the slot's transaction away from outside. [abort] rolls it
     back through the engine (forced aborts, sheds, a non-durable
     crash); otherwise it is dropped from the workload WITHOUT an engine
     abort — a power loss's in-flight transactions must reach the log as
     losers, and aborting them would write Txn_abort records that
     durably decide what the crash leaves undecided. *)
  let take ~abort s now =
    match s.txn with
    | None -> false
    | Some txn ->
        release s txn;
        s.killed <- true;
        s.zombie <- false;
        if Trace.on () then
          Trace.instant Trace.Txn
            (match (s.llt, abort) with
            | false, true -> "killed"
            | false, false -> "crash-lost"
            | true, true -> "llt-killed"
            | true, false -> "llt-crash-lost")
            ~at:now
            [ ("tid", Trace.I txn.Txn.tid) ];
        if abort then ignore (eng.Engine.abort txn ~now);
        true
  in
  let kill = take ~abort:true in
  (match eng.Engine.driver with
  | Some d ->
      d.State.shed_hook <-
        Some
          (fun ~tid ~now ->
            match Hashtbl.find_opt shed_tbl tid with Some s -> kill s now | None -> false)
  | None -> ());
  (* A killed slot backs off before new work; once the attempt budget
     runs out it gives the intent up ([None]). *)
  let retry s now =
    s.killed <- false;
    match Backoff.next s.backoff with
    | Some delay ->
        incr retries;
        Metrics.bump "runner.retries";
        if Trace.on () then
          Trace.instant Trace.Txn
            (if s.llt then "llt-retry" else "retry")
            ~at:now
            [ ("delay_ns", Trace.I delay) ];
        Some (Scheduler.Sleep_until (now + delay))
    | None ->
        incr give_ups;
        Metrics.bump "runner.give_ups";
        if Trace.on () then
          Trace.instant Trace.Txn (if s.llt then "llt-give-up" else "give-up") ~at:now [];
        Backoff.reset s.backoff;
        None
  in
  (* Pre-build one sampler per phase so workers just look the pattern
     up by time. *)
  let samplers =
    List.map
      (fun { Exp_config.at_s; pattern } ->
        (at_s, Access.create cfg.Exp_config.schema pattern))
      (if cfg.Exp_config.phases = [] then [ { Exp_config.at_s = 0.; pattern = Access.Uniform } ]
       else cfg.Exp_config.phases)
  in
  let sampler_at s =
    let rec pick current = function
      | [] -> current
      | (at_s, sampler) :: rest -> if s >= at_s then pick sampler rest else current
    in
    match samplers with
    | [] -> assert false
    | (_, first) :: rest -> pick first rest
  in
  (* OLTP workers: each short transaction takes two scheduling steps —
     begin first, then the operation body — so that transactions from
     different workers genuinely overlap in simulated time (write-write
     conflicts depend on that overlap). *)
  let spawn_worker i =
    let rng = Rng.split master_rng in
    let s = new_slot ~llt:false (0x42e7 lxor (i * 0x9e3779b9)) in
    Substrate.spawn sub ~name:(Printf.sprintf "worker-%d" i) ~at:0 (fun now ->
        match s.txn with
        | None -> (
            match if s.killed then retry s now else None with
            | Some step -> step
            | None ->
                if now >= horizon then Scheduler.Finished else begin_in s ~kind:Lease.Short now)
        | Some txn ->
            (* The whole body runs in this one step — no further
               scheduling gap where a short transaction could hang — so
               its lease ends here. *)
            release s txn;
            let access = sampler_at (Clock.to_seconds now) in
            let t = ref now in
            (try
               for _ = 1 to cfg.Exp_config.reads_per_txn do
                 let rid = Access.sample access rng in
                 let _, t' = eng.Engine.read txn ~rid ~now:!t in
                 t := t'
               done;
               for _ = 1 to cfg.Exp_config.writes_per_txn do
                 let rid = Access.sample access rng in
                 match eng.Engine.write txn ~rid ~payload:(Rng.int rng 1_000_000) ~now:!t with
                 | Engine.Committed_path t' -> t := t'
                 | Engine.Conflict t' ->
                     t := t';
                     raise Exit
               done;
               t := eng.Engine.commit txn ~now:!t;
               Backoff.reset s.backoff;
               Series.Rate.incr commit_rate ~time:(Clock.to_seconds !t);
               Histogram.add latency_us ((!t - txn.Txn.begin_time) / 1_000);
               if Trace.on () then
                 Trace.span Trace.Txn "txn" ~start:txn.Txn.begin_time
                   ~dur:(!t - txn.Txn.begin_time)
                   [ ("tid", Trace.I txn.Txn.tid); ("worker", Trace.I i) ]
             with Exit ->
               incr conflicts;
               Metrics.bump "runner.conflicts";
               t := eng.Engine.abort txn ~now:!t;
               if Trace.on () then
                 Trace.span Trace.Txn "txn-conflict" ~start:txn.Txn.begin_time
                   ~dur:(!t - txn.Txn.begin_time)
                   [ ("tid", Trace.I txn.Txn.tid); ("worker", Trace.I i) ]);
            Scheduler.Sleep_until !t)
  in
  for i = 0 to cfg.Exp_config.workers - 1 do
    spawn_worker i
  done;
  (* LLT drivers: begin at [start_s], read random records continuously,
     commit at the end of their lifetime. *)
  List.iteri
    (fun gi { Exp_config.start_s; duration_s; count } ->
      for li = 0 to count - 1 do
        let rng = Rng.split master_rng in
        let uniform = Access.create cfg.Exp_config.schema Access.Uniform in
        let s = new_slot ~llt:true (0x11c0ffee lxor ((gi * 131) + li)) in
        let llt_end = Clock.seconds (start_s +. duration_s) in
        Substrate.spawn sub
          ~name:(Printf.sprintf "llt-%d-%d" gi li)
          ~at:(Clock.seconds start_s)
          (fun now ->
            match s.txn with
            | None -> (
                if now >= llt_end || now >= horizon then Scheduler.Finished
                else if not s.killed then begin_in s ~kind:Lease.Llt now
                else
                  (* Shed (snapshot-too-old) or fault-aborted: restart
                     the scan after a backoff, with a fresh read view,
                     until the attempt budget runs out. *)
                  match retry s now with Some step -> step | None -> Scheduler.Finished)
            | Some txn ->
                if s.zombie then
                  (* Hung driver: keeps its snapshot pinned but never
                     issues another operation or the commit. Only the
                     watchdog's shed rung (through the kill switch) or
                     the end of the run gets it off the live table. *)
                  if now >= horizon then Scheduler.Finished
                  else Scheduler.Sleep_until (now + Clock.ms 1)
                else if now >= llt_end || now >= horizon then begin
                  release s txn;
                  let _ = eng.Engine.commit txn ~now in
                  if Trace.on () then
                    Trace.span Trace.Txn "llt" ~start:txn.Txn.begin_time
                      ~dur:(now - txn.Txn.begin_time)
                      [ ("tid", Trace.I txn.Txn.tid); ("group", Trace.I gi) ];
                  Scheduler.Finished
                end
                else begin
                  let rid = Access.sample uniform rng in
                  let _, t = eng.Engine.read txn ~rid ~now in
                  incr llt_reads;
                  (match lease with
                  | Some l -> Lease.note_progress l ~tid:txn.Txn.tid ~now:t
                  | None -> ());
                  Scheduler.Sleep_until t
                end)
      done)
    cfg.Exp_config.llts;
  (* Background GC (vacuum / purge / vCutter). Under an enabled
     governor the cadence follows the ladder: Pressured and above
     shorten the period so maintenance outpaces the pressure. *)
  Substrate.spawn sub ~name:"gc" ~at:cfg.Exp_config.gc_period (fun now ->
      if now >= horizon then Scheduler.Finished
      else if now < !cleaner_stall_until then
        (* Stalled (hung) cleaner: keep the wakeup cadence — so a
           watchdog restart takes effect at the next tick — but do no
           maintenance and post no beat. The missing beat is exactly
           what the watchdog detects. *)
        Scheduler.Sleep_until (now + cfg.Exp_config.gc_period)
      else begin
        (match wd with Some w -> Watchdog.beat w "cleaner" ~now | None -> ());
        let t = eng.Engine.maintenance ~now in
        let period =
          match eng.Engine.driver with
          | Some d ->
              let scale = Governor.gc_scale (Driver.governor d) in
              max (Clock.us 500)
                (int_of_float (float_of_int cfg.Exp_config.gc_period *. scale))
          | None -> cfg.Exp_config.gc_period
        in
        Scheduler.Sleep_until (max t (now + period))
      end);
  (* Fuzzy checkpointer: exists only for durable engines, so non-durable
     runs keep the exact process set (and scheduler order) of the
     seed. *)
  (match eng.Engine.checkpoint with
  | Some ckpt when cfg.Exp_config.ckpt_period_s > 0. ->
      let period = max 1 (Clock.seconds cfg.Exp_config.ckpt_period_s) in
      Substrate.every sub ~name:"checkpointer" ~period ~until:horizon (fun now ->
          ckpt ~now;
          match wd with Some w -> Watchdog.beat w "checkpointer" ~now | None -> ())
  | _ -> ());
  (* Metrics sampler. *)
  let space_series = Series.create () in
  let redo_series = Series.create () in
  let chain_series = Series.create () in
  let split_series = Series.create () in
  let sample_period = Clock.seconds cfg.Exp_config.sample_period_s in
  Substrate.every sub ~name:"sampler" ~period:sample_period ~until:horizon (fun now ->
      let s = eng.Engine.sample () in
      let sec = Clock.to_seconds now in
      Series.add space_series ~time:sec ~value:(float_of_int s.Engine.version_bytes);
      Series.add redo_series ~time:sec ~value:(float_of_int s.Engine.redo_bytes);
      Series.add chain_series ~time:sec ~value:(float_of_int s.Engine.max_chain);
      Series.add split_series ~time:sec ~value:(float_of_int s.Engine.splits));
  (* Fault harness: a continuous prune-soundness audit on the driver, a
     dispatch probe that consults the plan before every scheduled step,
     and a periodic invariant sweep over the whole driver state. Where
     the capability table says so (Domains, which has no watchdog), the
     sweep also runs the bounded-reclamation-lag monitor. *)
  let record_all = Invariant.record report in
  let lag_mon = ref None in
  (match faults with
  | None -> ()
  | Some plan ->
      (match eng.Engine.driver with
      | Some d ->
          Invariant.install_prune_audit d ~on_violation:(fun ~now viol ->
              record_all ~at:now [ viol ]);
          if direct_lag then
            lag_mon :=
              Some
                (Invariant.lag_monitor d
                   ~bound:
                     (Watchdog.lag_bound Watchdog.default_config
                        ~gc_period:cfg.Exp_config.gc_period));
          Substrate.every sub ~name:"invariants" ~period:(Fault_plan.check_period plan)
            ~until:horizon (fun now ->
              Fault_report.note_check report;
              record_all ~at:now (Invariant.check_all d);
              if direct_lag then
                Option.iter (fun m -> record_all ~at:now (Invariant.check_lag m ~now)) !lag_mon)
      | None -> ());
      (* Victim selection draws from the plan's seed, never from
         [master_rng]: a plan that injects nothing must leave the
         workload's random stream untouched. *)
      let victim_rng = Rng.create (Fault_plan.seed plan lxor 0x7fabc0de) in
      (* Offer a fault to the slots from [from] on, round-robin from a
         drawn one, until one takes it. *)
      let pick ~from f now =
        let n = Vec.length slots - from in
        if n > 0 then begin
          let start = Rng.int victim_rng n in
          let rec go i =
            if i < n && not (f (Vec.get slots (from + ((start + i) mod n))) now) then go (i + 1)
          in
          go 0
        end
      in
      let zombify s now =
        match s.txn with
        | Some txn when not s.zombie ->
            s.zombie <- true;
            if Trace.on () then
              Trace.instant Trace.Fault "llt-zombie" ~at:now [ ("tid", Trace.I txn.Txn.tid) ];
            true
        | _ -> false
      in
      let engine_wal () =
        match eng.Engine.driver with
        | Some d -> (
            match d.State.wal with
            | Some wal when Wal.is_durable wal -> Some wal
            | _ -> None)
        | None -> None
      in
      (* Power loss + ARIES-lite restart, for durable engines. [keep] is
         the device's survival point: frames beyond it are gone. With
         [torn_tail] a fabricated commit frame with a stale checksum is
         appended — honest recovery truncates it; a recovery running
         with [recovery_skip_tail_check] replays it and is caught by
         the post-recovery invariants. *)
      let do_crash_restart wal restart ~keep ~now =
        incr crashes;
        Fault_report.note_fault report "crash-restart";
        if Trace.on () then
          Trace.instant Trace.Fault "crash-restart" ~at:now
            [ ("keep_lsn", Trace.I keep) ];
        Vec.iter (fun s -> ignore (take ~abort:false s now)) slots;
        Wal.crash wal ~keep_lsn:keep;
        if Fault_plan.torn_tail plan then begin
          Wal_recovery.inject_torn_commit wal ~at:now;
          Fault_report.note_fault report "torn-tail"
        end;
        let info = restart ~now in
        recoveries := info :: !recoveries;
        Option.iter
          (fun d -> record_all ~at:now (Invariant.check_post_recovery d))
          eng.Engine.driver;
        if Trace.on () then
          Trace.instant Trace.Fault "recovered" ~at:now
            [
              ("replayed", Trace.I info.Engine.replayed_records);
              ("truncated", Trace.I info.Engine.truncated_frames);
              ("losers", Trace.I info.Engine.losers_rolled_back);
            ]
      in
      let apply action ~now =
        let name =
          if action = Fault_plan.Crash && not crash_faults then "crash-skipped"
          else Fault_plan.action_name action
        in
        Fault_report.note_fault report name;
        if Trace.on () then Trace.instant Trace.Fault name ~at:now [];
        match action with
        | Fault_plan.Abort_txn -> pick ~from:0 kill now
        | Fault_plan.Crash when not crash_faults -> ()
        | Fault_plan.Crash -> (
            match (engine_wal (), eng.Engine.restart) with
            | Some wal, Some restart ->
                (* Durable engine: a Poisson crash is a power loss at
                   the durability frontier — unfsynced frames are
                   gone — followed by restart replay. *)
                do_crash_restart wal restart ~keep:(Wal.flushed_lsn wal) ~now
            | _ ->
                (* §3.5: every in-flight transaction is a loser. Roll
                   them back through the engine's abort path, then run
                   crash recovery and immediately assert the Figure 10b
                   post-conditions. *)
                Vec.iter (fun s -> ignore (kill s now)) slots;
                ignore (eng.Engine.crash ());
                (match eng.Engine.driver with
                | Some d -> record_all ~at:now (Invariant.check_post_crash d)
                | None -> ()))
        | Fault_plan.Wal_error ->
            Failpoint.arm_fail_n "wal.append" 16;
            (* the simulated log device rejects syncs along with
               appends; harmless (never consulted) for engines that
               do not fsync *)
            Failpoint.arm_fail_n "wal.fsync" 4
        | Fault_plan.Flush_fail -> Failpoint.arm_fail_n "vsorter.flush" 4
        | Fault_plan.Evict_storm ->
            Option.iter (fun d -> Buffer_pool.clear d.State.store_cache) eng.Engine.driver
        | Fault_plan.Space_storm ->
            (* A burst writer: displace a volley of versions in one
               instant, squeezing the version-space quota. Drawn from
               the victim stream so a plan without storms stays
               bit-identical. *)
            let records = Schema.records cfg.Exp_config.schema in
            let txn, _ = eng.Engine.begin_txn ~now in
            let conflicted = ref false in
            (try
               for _ = 1 to 48 do
                 let rid = Rng.int victim_rng records in
                 match
                   eng.Engine.write txn ~rid ~payload:(Rng.int victim_rng 1_000_000) ~now
                 with
                 | Engine.Committed_path _ -> ()
                 | Engine.Conflict _ -> raise Exit
               done
             with Exit -> conflicted := true);
            if !conflicted then ignore (eng.Engine.abort txn ~now)
            else ignore (eng.Engine.commit txn ~now)
        | Fault_plan.Cleaner_stall ->
            (* The cleaning loop hangs outright for a drawn duration —
               long enough that a run without the watchdog provably
               exceeds the reclamation-lag bound. Liveness injections
               only bite in armed runs (the gate is constant for the
               whole run, so determinism per mode is unaffected). *)
            if liveness_armed then begin
              let dur = Clock.ms (150 + Rng.int victim_rng 451) in
              cleaner_stall_until := max !cleaner_stall_until (now + dur)
            end
        | Fault_plan.Collab_delay ->
            (* The cutter dawdles between footprint install and its
               completion mark. In the discrete-event engines the
               episode is uncontended, so the observable effect is a
               brief maintenance hiccup; the genuine spin-window stretch
               is exercised by the multi-domain collaboration tests. *)
            if liveness_armed then begin
              let dur = Clock.ms (2 + Rng.int victim_rng 19) in
              cleaner_stall_until := max !cleaner_stall_until (now + dur)
            end
        | Fault_plan.Llt_zombie ->
            (* Only armed runs have zombies: the LLT slots follow the
               workers'. *)
            if liveness_armed then pick ~from:cfg.Exp_config.workers zombify now
        | Fault_plan.Node_kill | Fault_plan.Node_revive ->
            (* Rejected above: the single-instance runner has no nodes. *)
            ()
      in
      (* Crash-point schedule: power loss the first time the log's
         highest LSN reaches each point, checked at every dispatch
         boundary — deterministic in WAL position, independent of
         simulated time. *)
      let crash_points = ref (Fault_plan.crash_points plan) in
      let plan = Fault_plan.cursor plan in
      Substrate.on_dispatch sub (fun ~name:_ ~now ->
          (match !crash_points with
          | p :: rest -> (
              match (engine_wal (), eng.Engine.restart) with
              | Some wal, Some restart when Wal.max_lsn wal >= p ->
                  crash_points := rest;
                  do_crash_restart wal restart ~keep:(min p (Wal.max_lsn wal)) ~now
              | _ -> ())
          | [] -> ());
          List.iter (fun action -> apply action ~now) (Fault_plan.poll plan ~now)));
  (* Liveness watchdog: heartbeat sources over the cleaning pipeline,
     the escalation ladder polled on the simulated clock, and the
     bounded-reclamation-lag monitor. Spawned after the fault plumbing
     so the probe is already armed when the first poll fires. *)
  (match wd with
  | None -> ()
  | Some w ->
      Watchdog.register w "cleaner" ~now:0;
      (match eng.Engine.driver with
      | Some d ->
          Watchdog.register w "vsorter" ~now:0;
          Watchdog.register w "vcutter" ~now:0;
          Watchdog.register w "governor" ~now:0;
          d.State.watchdog <- Some w;
          let bound =
            Watchdog.lag_bound (Watchdog.config w) ~gc_period:cfg.Exp_config.gc_period
          in
          lag_mon := Some (Invariant.lag_monitor d ~bound)
      | None -> ());
      if eng.Engine.checkpoint <> None && cfg.Exp_config.ckpt_period_s > 0. then
        Watchdog.register ~watch:false w "checkpointer" ~now:0;
      (* A zombie is a transaction past its lease with no progress that
         also pins otherwise-dead versions (ISSUE §5): merely idling is
         harmless, so only harmful idlers count — and only they are
         ever shed, which is what the no-false-kill invariant audits. *)
      let expired_zombies ~now =
        match (lease, eng.Engine.driver) with
        | Some l, Some d ->
            List.filter
              (fun tid -> Hashtbl.mem shed_tbl tid && Driver.pins_dead_interval d ~tid)
              (Lease.expired l ~now)
        | _ -> []
      in
      let actions =
        {
          Watchdog.nudge = (fun ~now -> ignore (eng.Engine.maintenance ~now));
          restart_cleaners = (fun ~now -> cleaner_stall_until := now);
          sync_reclaim =
            (fun ~now ->
              match eng.Engine.driver with
              | Some d ->
                  ignore (Driver.flush_all d ~now);
                  ignore (Driver.maintain d ~now)
              | None -> ignore (eng.Engine.maintenance ~now));
          shed_zombies =
            (fun ~max:batch ~now ->
              let victims = expired_zombies ~now in
              let rec cancel n = function
                | [] -> n
                | _ when n >= batch -> n
                | tid :: rest ->
                    let killed =
                      match Hashtbl.find_opt shed_tbl tid with
                      | Some s ->
                          Option.iter (fun l -> Lease.note_cancel l ~tid ~now) lease;
                          kill s now
                      | None -> false
                    in
                    cancel (if killed then n + 1 else n) rest
              in
              cancel 0 victims);
          zombie_count = (fun ~now -> List.length (expired_zombies ~now));
        }
      in
      let period = (Watchdog.config w).Watchdog.check_period in
      Substrate.every sub ~name:"watchdog" ~period ~until:horizon (fun now ->
          Option.iter (fun m -> record_all ~at:now (Invariant.check_lag m ~now)) !lag_mon;
          Option.iter (fun l -> record_all ~at:now (Invariant.check_no_false_kill l)) lease;
          Option.iter (fun d -> record_all ~at:now (Invariant.check_watchdog d)) eng.Engine.driver;
          Watchdog.poll w ~now ~actions));
  (* Under an unsound rule (e.g. a sabotaged zone test) the engine can
     fail outright — a snapshot read landing on a pruned version. During
     a fault run that is itself a verdict, not a harness crash: record
     it and let the campaign report it. Without a fault plan the
     exception propagates as before. *)
  let engine_failed =
    try
      ignore (Substrate.run sub ~until:horizon);
      false
    with exn when faults <> None ->
      Fault_report.record report ~at:(Substrate.now sub) ~invariant:"engine-failure"
        ~detail:(Printexc.to_string exn);
      true
  in
  if not engine_failed then eng.Engine.finish ~now:horizon;
  Option.iter (fun m -> Invariant.finish_lag m ~now:horizon) !lag_mon;
  (match eng.Engine.driver with
  | Some d ->
      Invariant.remove_prune_audit d;
      d.State.shed_hook <- None;
      d.State.watchdog <- None
  | None -> ());
  let final = eng.Engine.sample () in
  let sheds =
    match eng.Engine.driver with
    | Some d -> Governor.sheds (Driver.governor d)
    | None -> 0
  in
  let max_reclamation_lag = match !lag_mon with Some m -> Invariant.max_lag m | None -> 0 in
  let lag_histogram =
    match !lag_mon with
    | Some m -> Invariant.lag_histogram m
    | None -> Histogram.create ~bucket_width:50 ()
  in
  (match wd with
  | Some w when Metrics.in_scope () <> None ->
      Metrics.set_gauge "watchdog.escalations" (float_of_int (Watchdog.escalations w));
      Metrics.set_gauge "watchdog.zombie_cancels" (float_of_int (Watchdog.zombie_cancels w));
      Metrics.set_gauge "watchdog.max_reclamation_lag_us"
        (float_of_int (max_reclamation_lag / 1000))
  | _ -> ());
  let commits = Series.Rate.total commit_rate in
  let tput =
    if cfg.Exp_config.duration_s > 0. then float_of_int commits /. cfg.Exp_config.duration_s
    else 0.
  in
  let space = Series.to_list space_series in
  let pctl h p = if Histogram.total h = 0 then 0 else Histogram.percentile h p in
  let completeness =
    Option.map
      (fun d ->
        let s = Driver.stats d in
        let pruned = Prune_stats.prune1_total s + Prune_stats.prune2_total s in
        let settled = pruned + Prune_stats.stored_total s in
        if settled = 0 then 1. else float_of_int pruned /. float_of_int settled)
      eng.Engine.driver
  in
  (* Headline gauges for the metrics snapshot (the BENCH_obs / golden
     surface): every traced run exports these whether or not the hot
     paths fed their histograms, so the schema's required keys are
     always present. *)
  (match Metrics.in_scope () with
  | None -> ()
  | Some reg ->
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
    eng.Engine.driver;
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
    let prune f = Option.fold ~none:0 ~some:(fun d -> f (Driver.stats d)) eng.Engine.driver in
    [
      str "mode" (match mode with Sim -> "sim" | Domains _ -> "domains");
      int "domains" (match mode with Sim -> 1 | Domains { domains } -> domains);
      (* The backend identity is part of the experiment, not a
         statistic. *)
      str ~rule:Exact "gc_backend"
        (Option.fold ~none:"vcutter" ~some:Driver.gc_backend_name eng.Engine.driver);
      int ~rule:(Within (0.20, 400.)) "commits" commits;
      int ~rule:(Within (2.0, 150.)) "conflicts" !conflicts;
      int ~rule:(Within (0.25, 400.)) "llt_reads" !llt_reads;
      int ~rule:(Within (2.0, 60.)) "retries" !retries;
      int ~rule:(Within (2.0, 25.)) "give_ups" !give_ups;
      int ~rule:(Within (2.0, 25.)) "sheds" sheds;
      int ~rule:(Within (2.0, 80.)) "wal_errors" final.Engine.wal_errors;
      int "faults_injected"
        (List.fold_left (fun acc (_, n) -> acc + n) 0 (Fault_report.faults_injected report));
      int ~rule:Zero "invariant_violations" (Fault_report.violation_count report);
      int ~rule:space_tol "peak_space" (peak_of space);
      int ~rule:space_tol "final_space" (final_of space);
      int ~rule:chain "peak_chain" (peak_of (Series.to_list chain_series));
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
    @ (match !lag_mon with
      | None -> []
      | Some _ ->
          [
            int ~rule:(Within (2.0, 100_000.)) "max_reclamation_lag_us"
              (max_reclamation_lag / 1000);
            int "lag_samples" (Histogram.total lag_histogram);
          ])
    @ recovery ~crashes:!crashes !recoveries
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
    match eng.Engine.driver with
    | Some { State.gc_backend = Some h; _ } ->
        List.map (fun (k, n) -> int k n) (h.State.gh_gauges ())
    | _ -> []
  in
  Run_digest.publish report digest;
  {
    engine_name = eng.Engine.name;
    throughput = Series.Rate.per_second commit_rate;
    version_space = space;
    redo = Series.to_list redo_series;
    max_chain = Series.to_list chain_series;
    splits = Series.to_list split_series;
    chain_cdf = cdf;
    latency_us;
    commits;
    conflicts = !conflicts;
    llt_reads = !llt_reads;
    truncations = final.Engine.truncations;
    latch_wait = final.Engine.latch_wait;
    cut_delays =
      (match eng.Engine.driver with
      | Some d -> Version_store.cut_delays (Driver.store d)
      | None -> []);
    driver = eng.Engine.driver;
    faults = report;
    wal_errors = final.Engine.wal_errors;
    retries = !retries;
    give_ups = !give_ups;
    sheds;
    crashes = !crashes;
    recoveries = List.rev !recoveries;
    zombie_cancels = (match wd with Some w -> Watchdog.zombie_cancels w | None -> 0);
    watchdog_escalations = (match wd with Some w -> Watchdog.escalations w | None -> 0);
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
