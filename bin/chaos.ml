(* Seeded chaos campaigns: run the vDriver engines under a randomized
   fault plan with the full invariant catalogue armed, and fail loudly
   if any safety property breaks.

   Everything — workload, fault plan, victim selection, report — is a
   deterministic function of the seed, so `chaos --seed N` prints the
   same bytes on every machine and every run. That makes a violation a
   one-line bug report: the seed reproduces it.

   `--sabotage NAME` arms one row of the {!Sabotage} registry — a
   deliberately broken variant of the system (a widened dead zone, a
   governor ignoring its quota, an unchecked recovery tail, a disabled
   watchdog, a GC backend's planted defect, a skipped 2PC decision, a
   forged network ack, a lying replication primary). The run is then
   *expected* to be caught by one of the row's named invariants: a
   clean exit is a harness bug. Rows that break 2PC or replication
   need `--shards`; the others break the unsharded campaign. Without
   the flag the banner reads `sabotage=0`.

   `--quota BYTES` arms the version-space governor: the campaign then
   additionally asserts that every post-maintenance space checkpoint
   stays within the quota and that the health-ladder transition log is
   honest. `--require-shed` makes a clean exit additionally require at
   least one campaign that reached the Shedding rung and recovered to
   Normal (CI uses it to prove the overload scenario actually exercises
   the whole ladder).

   `--crash-points N` switches the engine to the durable typed-record
   WAL and schedules N deterministic power losses per campaign by WAL
   position (seeded LSN gaps), each with a fabricated torn tail; the
   engine restarts by ARIES-lite replay and the post-recovery
   invariants compare it against the honest log oracle. Poisson
   crashes from the random plan take the same restart path.

   `--stalls` draws cleaner-stall and collab-delay rates into the plan
   (the cleaning loop hangs for 150-600 ms at a time) and arms the
   liveness watchdog; `--zombie-llts` additionally draws LLT-zombie
   injections (a driver that stops issuing operations but keeps its
   snapshot). With the watchdog on, the campaign must stay within the
   computable reclamation-lag bound (0 violations). `--require-containment`
   makes a clean exit additionally require that the injected pressure
   was really exercised: at least one escalation under `--stalls`, at
   least one zombie cancel under `--zombie-llts`. *)

open Cmdliner

let engine_of_string = function
  | "pg-vdriver" -> Ok (fun config schema -> Siro_engine.create ~driver_config:config ~flavor:`Pg schema)
  | "mysql-vdriver" ->
      Ok (fun config schema -> Siro_engine.create ~driver_config:config ~flavor:`Mysql schema)
  | s -> Error (`Msg (Printf.sprintf "unknown engine %S (chaos drives the vDriver engines)" s))

let engine_conv =
  Arg.conv
    ( (fun s -> Result.map (fun e -> (s, e)) (engine_of_string s)),
      fun fmt (s, _) -> Format.pp_print_string fmt s )

let gc_backend_conv =
  Arg.conv
    ( Gc_backend.kind_of_string,
      fun fmt k -> Format.pp_print_string fmt (Gc_backend.kind_name k) )

let sabotage_rows = List.map (fun s -> (Sabotage.name s, s)) Sabotage.all

(* `--gc-backend` swaps the collector behind Driver.maintain for every
   engine the campaigns build (`--sabotage gc-K` selects backend K with
   its defect armed). The vcutter backend is byte-identical to the
   un-hooked seed path, so installing it unconditionally keeps every
   default campaign reproducible against old outputs. *)
let gc_banner (cfg : Gc_backend.config) =
  Printf.sprintf " gc=%s" (Gc_backend.kind_name cfg.Gc_backend.kind)

let sabotage_banner = function None -> "0" | Some s -> Sabotage.name s

let usage msg =
  prerr_endline ("chaos: " ^ msg);
  exit 2

(* One independent seed per campaign, derived from the base seed. *)
let campaign_seeds seed campaigns =
  let rng = Rng.create seed in
  List.init campaigns (fun _ -> Int64.to_int (Rng.next_int64 rng) land 0x3fffffff)

let campaign_config ~seed ~duration =
  {
    Exp_config.default with
    Exp_config.name = "chaos";
    seed;
    duration_s = duration;
    workers = 8;
    schema = { Schema.default with Schema.tables = 4; rows_per_table = 250 };
    phases = [ { Exp_config.at_s = 0.; pattern = Access.Zipfian 0.9 } ];
    llts =
      [
        { Exp_config.start_s = duration /. 5.; duration_s = duration /. 2.; count = 2 };
        { Exp_config.start_s = duration /. 2.; duration_s = duration /. 4.; count = 1 };
      ];
  }

(* A governed campaign's summary; counts it in [shed_recoveries] when it
   reached Shedding and ended back at Normal. *)
let report_governor i ~now shed_recoveries (r : Runner.result) =
  match r.Runner.driver with
  | None -> ()
  | Some d ->
      let g = Driver.governor d in
      let reached_shedding =
        List.exists (fun tr -> tr.Governor.to_rung = Governor.Shedding) (Governor.transitions g)
      in
      if reached_shedding && Governor.rung g = Governor.Normal then incr shed_recoveries;
      Format.printf "@[<v>campaign %d %a@]@." i (fun fmt g -> Governor.pp_summary fmt ~now g) g

(* `--mode=domains`: every campaign runs twice under the same crash-free
   fault plan — once on the deterministic Sim scheduler, once on real
   OCaml 5 domains — and the two {!Run_digest}s must agree in addition
   to both runs holding every online invariant. *)
let run_domains_campaigns ename engine seed campaigns duration sabotage quota
    require_shed ndomains vbuffer gc_cfg =
  let campaign_seeds = campaign_seeds seed campaigns in
  Printf.printf "chaos: engine=%s seed=%d campaigns=%d duration=%.1fs mode=domains x%d sabotage=%s quota=%d%s%s\n"
    ename seed campaigns duration ndomains (sabotage_banner sabotage) quota
    (if vbuffer > 0 then Printf.sprintf " vbuffer=%d" vbuffer else "")
    (gc_banner gc_cfg);
  let total_violations = ref 0 and total_mismatches = ref 0 in
  let shed_recoveries = ref 0 in
  List.iteri
    (fun i campaign_seed ->
      (* A plan's poll cursor is stateful: both runs (and the banner)
         get a fresh instance drawn from the same seed. *)
      let plan () = Fault_plan.random ~crashes:false ~seed:campaign_seed () in
      let cfg = campaign_config ~seed:campaign_seed ~duration in
      let rs = Runner.run ~engine ~faults:(plan ()) cfg in
      let rd =
        Runner.run ~engine ~faults:(plan ()) ~mode:(Runner.Domains { domains = ndomains }) cfg
      in
      total_violations :=
        !total_violations
        + Fault_report.violation_count rs.Runner.faults
        + Fault_report.violation_count rd.Runner.faults;
      let ds = Run_digest.of_result ~mode:"sim" ~domains:1 cfg rs in
      let dd = Run_digest.of_result ~mode:"domains" ~domains:ndomains cfg rd in
      Format.printf "@[<v>campaign %d seed=%d plan: %a@ sim:     %a@ domains: %a@]@." i
        campaign_seed Fault_plan.pp (plan ()) Run_digest.pp ds Run_digest.pp dd;
      (match Run_digest.diff ds dd with
      | [] -> Printf.printf "campaign %d digests agree\n" i
      | msgs ->
          total_mismatches := !total_mismatches + List.length msgs;
          List.iter (fun m -> Printf.printf "campaign %d MISMATCH: %s\n" i m) msgs);
      if quota > 0 then report_governor i ~now:(Clock.seconds duration) shed_recoveries rd)
    campaign_seeds;
  Printf.printf "chaos: %d campaign(s), %d violation(s), %d digest mismatch(es)\n" campaigns
    !total_violations !total_mismatches;
  if !total_violations > 0 || !total_mismatches > 0 then exit 1;
  if require_shed && !shed_recoveries = 0 then begin
    Printf.printf "chaos: FAIL --require-shed: no campaign reached Shedding and recovered\n";
    exit 1
  end

(* `--shards=N`: the campaign drives a {!Shard_group} — N vDriver
   pipelines over one snapshot order — through {!Shard_runner}: routed
   OLTP with a drawn fraction of cross-shard (2PC) transactions, an LLT
   fleet, epoch-broadcast dead zones, power losses by global log
   position, crash-at-2PC-step schedules and torn tails, with the
   per-shard invariant catalogue and the cross-shard atomicity oracle
   armed. The sharded {!Sabotage} rows (a skipped coordinator decision,
   a network defect, a lying replication primary) arm here. *)
let run_shard_campaigns seed campaigns duration shards scenario cross_pct crash_points
    ckpt_ms crash_steps sabotage mode ndomains net_on net_loss net_dup net_delay_us
    partitions replicas rep_quorum kill_nodes kill_steps =
  let scenario =
    match Shard_router.scenario_of_string scenario with
    | Some s -> s
    | None -> usage "unknown --shard-scenario (uniform | zipf | hot)"
  in
  if net_on && shards < 2 then usage "network faults need at least two shards (--shards=2+)";
  let net_sabotage = match sabotage with Some (Sabotage.Net _) -> true | _ -> false in
  if (net_on || net_sabotage) && (crash_points > 0 || crash_steps > 0) then
    usage
      "network faults and crash schedules are separate campaigns for now — drop \
       --crash-points/--crash-steps or the --net-* flags";
  let campaign_seeds = campaign_seeds seed campaigns in
  Printf.printf
    "chaos: sharded seed=%d campaigns=%d duration=%.1fs shards=%d scenario=%s cross=%d%%%s%s%s%s%s%s\n"
    seed campaigns duration shards
    (Shard_router.scenario_to_string scenario)
    cross_pct
    (if crash_points > 0 then Printf.sprintf " crash-points=%d" crash_points else "")
    (if crash_steps > 0 then Printf.sprintf " crash-steps=%d" crash_steps else "")
    (match sabotage with Some s -> " sabotage=" ^ Sabotage.name s | None -> "")
    (if net_on then
       Printf.sprintf " net[loss=%.2f dup=%.2f delay=%dus partitions=%d]" net_loss net_dup
         net_delay_us partitions
     else "")
    (if replicas > 0 then
       Printf.sprintf " replicas=%d%s%s%s" replicas
         (if rep_quorum > 0 then Printf.sprintf " quorum=%d" rep_quorum else "")
         (if kill_nodes then " kill-nodes" else "")
         (if kill_steps > 0 then Printf.sprintf " kill-steps=%d" kill_steps else "")
     else "")
    (match mode with `Domains -> Printf.sprintf " mode=domains x%d" ndomains | `Sim -> "");
  let total_violations = ref 0 and total_mismatches = ref 0 in
  List.iteri
    (fun i campaign_seed ->
      let base =
        {
          (campaign_config ~seed:campaign_seed ~duration) with
          Exp_config.ckpt_period_s = float_of_int ckpt_ms /. 1000.;
        }
      in
      let points =
        if crash_points <= 0 then []
        else begin
          let rng = Rng.create (campaign_seed lxor 0x632d7074) in
          let lsn = ref (shards * Wal.bootstrap_lsn) in
          List.init crash_points (fun _ ->
              lsn := !lsn + 400 + Rng.int rng 4001;
              !lsn)
        end
      in
      let steps =
        if crash_steps <= 0 then []
        else begin
          let rng = Rng.create (campaign_seed lxor 0x32706373) in
          let s = ref 0 in
          List.init crash_steps (fun _ ->
              s := !s + 5 + Rng.int rng 80;
              !s)
        end
      in
      let net =
        if not net_on then Net_fault.none
        else
          Fault_plan.random_net ~loss:net_loss ~dup:net_dup ~delay_us:net_delay_us
            ~partitions ~shards
            ~horizon:(Clock.seconds duration)
            ~seed:campaign_seed ()
      in
      let ksteps =
        (* Replication-step kill schedule: seeded cumulative gaps wide
           enough that the group recovers (promotes and re-syncs)
           between kills. *)
        if kill_steps <= 0 then []
        else begin
          let rng = Rng.create (campaign_seed lxor 0x6b737470) in
          let s = ref 0 in
          List.init kill_steps (fun _ ->
              s := !s + 50 + Rng.int rng 400;
              !s)
        end
      in
      let cfg =
        {
          (Shard_runner.default ~shards base) with
          Shard_runner.scenario;
          cross_pct;
          crash_points = points;
          crash_steps = steps;
          torn_tail = points <> [] || steps <> [];
          sabotage;
          net;
          replicas;
          rep_quorum = (if rep_quorum > 0 then Some rep_quorum else None);
          kill_steps = ksteps;
          node_faults =
            (if kill_nodes then Some (Fault_plan.random_nodes ~seed:campaign_seed ())
             else None);
        }
      in
      let r = Shard_runner.run cfg in
      total_violations := !total_violations + Fault_report.violation_count r.Shard_runner.report;
      Format.printf
        "@[<v>campaign %d seed=%d commits=%d (cross=%d single=%d) conflicts=%d 2pc-steps=%d \
         crashes=%d epochs=%d@ %a@]@."
        i campaign_seed r.Shard_runner.commits r.Shard_runner.cross_commits
        r.Shard_runner.single_commits r.Shard_runner.conflicts r.Shard_runner.two_pc_steps
        r.Shard_runner.crashes r.Shard_runner.epochs Fault_report.pp r.Shard_runner.report;
      if r.Shard_runner.crashes > 0 then begin
        let sum f = List.fold_left (fun acc x -> acc + f x) 0 r.Shard_runner.recoveries in
        Format.printf "campaign %d recovery: crashes=%d replayed=%d truncated=%d losers=%d@." i
          r.Shard_runner.crashes
          (sum (fun (x : Engine.restart_info) -> x.Engine.replayed_records))
          (sum (fun (x : Engine.restart_info) -> x.Engine.truncated_frames))
          (sum (fun (x : Engine.restart_info) -> x.Engine.losers_rolled_back))
      end;
      (match r.Shard_runner.digest.Shard_runner.d_net with
      | None -> ()
      | Some n ->
          Printf.printf
            "campaign %d net: sent=%d dropped=%d retried=%d net-aborts=%d indoubt-max=%dus \
             indoubt-mean=%.0fus\n"
            i n.Shard_runner.nd_sent n.Shard_runner.nd_dropped n.Shard_runner.nd_retried
            r.Shard_runner.net_aborts r.Shard_runner.indoubt_max_us
            r.Shard_runner.indoubt_mean_us);
      (match r.Shard_runner.digest.Shard_runner.d_repl with
      | None -> ()
      | Some d ->
          Printf.printf
            "campaign %d repl: kills=%d revives=%d promotions=%d fencings=%d stale-acks=%d \
             restarts=%d failover-lag-max=%dus\n"
            i d.Shard_runner.rd_kills d.Shard_runner.rd_revives d.Shard_runner.rd_promotions
            d.Shard_runner.rd_fencings d.Shard_runner.rd_stale_acks d.Shard_runner.rd_restarts
            d.Shard_runner.rd_lag_max_us);
      match mode with
      | `Sim -> ()
      | `Domains ->
          (* Differential leg: the same honest campaign on real domains;
             the digests must agree. Crash faults are Sim-only, so the
             comparison runs the crash-free variant on both substrates. *)
          let honest =
            {
              cfg with
              Shard_runner.crash_points = [];
              crash_steps = [];
              torn_tail = false;
            }
          in
          let ds = (Shard_runner.run ~mode:Shard_runner.Sim honest).Shard_runner.digest in
          let dd =
            (Shard_runner.run ~mode:(Shard_runner.Domains { domains = ndomains }) honest)
              .Shard_runner.digest
          in
          (match Shard_runner.digest_diff ds dd with
          | [] -> Printf.printf "campaign %d sim/domains digests agree\n" i
          | msgs ->
              total_mismatches := !total_mismatches + List.length msgs;
              List.iter (fun m -> Printf.printf "campaign %d MISMATCH: %s\n" i m) msgs))
    campaign_seeds;
  Printf.printf "chaos: %d sharded campaign(s), %d violation(s), %d digest mismatch(es)\n"
    campaigns !total_violations !total_mismatches;
  if !total_violations > 0 || !total_mismatches > 0 then exit 1

let run_sim_campaigns ename engine seed campaigns duration sabotage quota require_shed
    crash_points ckpt_ms stalls zombie_llts require_containment trace_out metrics_out vbuffer
    gc_cfg =
  let campaign_seeds = campaign_seeds seed campaigns in
  let liveness = stalls || zombie_llts || sabotage = Some Sabotage.No_watchdog in
  let wdog =
    if not liveness then None
    else
      Some
        (Sabotage.watchdog sabotage
           {
             Watchdog.default_config with
             Watchdog.check_period = Clock.ms 5;
             stall_timeout = Clock.ms 20;
             escalation_cooldown = Clock.ms 10;
           })
  in
  Printf.printf
    "chaos: engine=%s seed=%d campaigns=%d duration=%.1fs sabotage=%s quota=%d%s%s%s%s%s\n"
    ename seed campaigns duration (sabotage_banner sabotage) quota
    (if crash_points > 0 then Printf.sprintf " crash-points=%d" crash_points else "")
    (if stalls then " stalls" else "")
    (if zombie_llts then " zombie-llts" else "")
    (if vbuffer > 0 then Printf.sprintf " vbuffer=%d" vbuffer else "")
    (gc_banner gc_cfg);
  (match wdog with
  | Some w ->
      Printf.printf "chaos: liveness lag bound L=%dus (watchdog %s)\n"
        (Watchdog.lag_bound w ~gc_period:Exp_config.default.Exp_config.gc_period / 1000)
        (if w.Watchdog.enabled then "on" else "OFF — sabotage")
  | None -> ());
  let total_violations = ref 0 in
  let shed_recoveries = ref 0 in
  let total_escalations = ref 0 in
  let total_zombie_cancels = ref 0 in
  let horizon = Clock.seconds duration in
  (* One obs scope spans all campaigns: the trace shows the campaigns
     back to back and the metrics snapshot aggregates them. The exports
     are written before the violation count decides the exit status, so
     a failing campaign still leaves its artifacts behind. *)
  Obs_export.with_obs ?trace:trace_out ?metrics:metrics_out (fun () ->
  List.iteri
    (fun i campaign_seed ->
      (* Crash points by WAL position: a seeded schedule with gaps wide
         enough to let relocations, hardens and cuts land between
         crashes, tight enough that several crashes interrupt them
         mid-flight. Points below the bootstrap checkpoint are
         meaningless; start past it. *)
      let points =
        if crash_points <= 0 then []
        else begin
          let rng = Rng.create (campaign_seed lxor 0x632d7074) in
          let lsn = ref Wal.bootstrap_lsn in
          List.init crash_points (fun _ ->
              lsn := !lsn + 200 + Rng.int rng 2801;
              !lsn)
        end
      in
      let plan =
        Fault_plan.random ~crash_points:points ~torn_tail:(points <> []) ~stalls
          ~zombies:zombie_llts ~seed:campaign_seed ()
      in
      let cfg =
        { (campaign_config ~seed:campaign_seed ~duration) with
          Exp_config.ckpt_period_s = float_of_int ckpt_ms /. 1000. }
      in
      let r = Runner.run ~engine ~faults:plan ?watchdog:wdog cfg in
      total_violations := !total_violations + Fault_report.violation_count r.Runner.faults;
      Format.printf "@[<v>campaign %d seed=%d plan: %a@ commits=%d conflicts=%d@ %a@]@." i
        campaign_seed Fault_plan.pp plan r.Runner.commits r.Runner.conflicts Fault_report.pp
        r.Runner.faults;
      if r.Runner.crashes > 0 then begin
        let sum f = List.fold_left (fun acc i -> acc + f i) 0 r.Runner.recoveries in
        Format.printf
          "campaign %d recovery: crashes=%d replayed=%d versions=%d truncated=%d losers=%d@."
          i r.Runner.crashes
          (sum (fun (x : Engine.restart_info) -> x.Engine.replayed_records))
          (sum (fun (x : Engine.restart_info) -> x.Engine.replayed_versions))
          (sum (fun (x : Engine.restart_info) -> x.Engine.truncated_frames))
          (sum (fun (x : Engine.restart_info) -> x.Engine.losers_rolled_back))
      end;
      if liveness then begin
        total_escalations := !total_escalations + r.Runner.watchdog_escalations;
        total_zombie_cancels := !total_zombie_cancels + r.Runner.zombie_cancels;
        Format.printf
          "campaign %d liveness: escalations=%d zombie-cancels=%d max-lag-us=%d lag-samples=%d@."
          i r.Runner.watchdog_escalations r.Runner.zombie_cancels
          (r.Runner.max_reclamation_lag / 1000)
          (Histogram.total r.Runner.reclamation_lag_us)
      end;
      if quota > 0 then report_governor i ~now:horizon shed_recoveries r)
    campaign_seeds);
  Printf.printf "chaos: %d campaign(s), %d violation(s)\n" campaigns !total_violations;
  if require_shed then
    Printf.printf "chaos: %d campaign(s) shed and recovered to normal\n" !shed_recoveries;
  if liveness then
    Printf.printf "chaos: liveness totals: escalations=%d zombie-cancels=%d\n"
      !total_escalations !total_zombie_cancels;
  if !total_violations > 0 then exit 1;
  if require_shed && !shed_recoveries = 0 then begin
    Printf.printf "chaos: FAIL --require-shed: no campaign reached Shedding and recovered\n";
    exit 1
  end;
  if require_containment then begin
    if stalls && !total_escalations = 0 then begin
      Printf.printf "chaos: FAIL --require-containment: --stalls injected but no escalation\n";
      exit 1
    end;
    if zombie_llts && !total_zombie_cancels = 0 then begin
      Printf.printf
        "chaos: FAIL --require-containment: --zombie-llts injected but no zombie cancel\n";
      exit 1
    end
  end

let run_campaigns (ename, engine) seed campaigns duration sabotage quota require_shed
    crash_points ckpt_ms stalls zombie_llts require_containment trace_out metrics_out mode
    ndomains shards shard_scenario cross_pct crash_steps vbuffer gc_backend net_loss net_dup
    net_delay_us partitions replicas rep_quorum kill_nodes kill_steps =
  let net_on = net_loss > 0. || net_dup > 0. || net_delay_us > 0 || partitions > 0 in
  (match sabotage with
  | Some s when Sabotage.sharded s <> (shards > 0) ->
      usage
        (Printf.sprintf "--sabotage %s %s" (Sabotage.name s)
           (if Sabotage.sharded s then "needs --shards" else "breaks the unsharded campaign"))
  | _ -> ());
  (* The library's own configuration checks (replication against crash
     faults, node faults or a quorum without replicas, a quorum out of
     range) surface as usage errors. *)
  try
    if shards > 0 then begin
      if
        quota > 0 || require_shed || stalls || zombie_llts || require_containment
        || trace_out <> None || metrics_out <> None
        || vbuffer > 0 || gc_backend <> Gc_backend.Vcutter
      then
        usage
          "--shards composes only with --crash-points/--crash-steps/--cross-pct/\
           --shard-scenario/--ckpt-ms/--mode/--net-loss/--net-dup/--net-delay-us/\
           --partitions/--replicas/--rep-quorum/--kill-nodes/--kill-steps and the sharded \
           --sabotage rows (the sharded campaign runs the built-in vcutter path)";
      run_shard_campaigns seed campaigns duration shards shard_scenario cross_pct crash_points
        ckpt_ms crash_steps sabotage mode ndomains net_on net_loss net_dup net_delay_us
        partitions replicas rep_quorum kill_nodes kill_steps
    end
    else if crash_steps > 0 || replicas > 0 || rep_quorum > 0 || kill_nodes || kill_steps > 0
            || net_on
    then
      usage
        "--crash-steps/--replicas/--rep-quorum/--kill-nodes/--kill-steps/--net-*/--partitions \
         need --shards"
    else begin
      let skip_tail_check = sabotage = Some Sabotage.Skip_tail_check in
      (* What the domains substrate lacks comes from the one capability
         table; each row names the flags that request it. *)
      (match mode with
      | `Sim -> ()
      | `Domains ->
          let dmode = Substrate.Domains { domains = ndomains } in
          let reject reason = usage ("--mode=domains: " ^ reason) in
          Option.iter reject (Substrate.unsupported dmode []);
          List.iter
            (fun (feature, requested, flags) ->
              Option.iter
                (fun reason -> reject (reason ^ "; drop " ^ flags))
                (Substrate.unsupported dmode [ (feature, requested) ]))
            [
              (Substrate.Crash_faults, crash_points > 0 || skip_tail_check,
               "--crash-points/--sabotage skip-tail-check");
              (Substrate.Watchdog,
               stalls || zombie_llts || require_containment
               || sabotage = Some Sabotage.No_watchdog,
               "--stalls/--zombie-llts/--require-containment/--sabotage no-watchdog");
              (Substrate.Obs_export, trace_out <> None || metrics_out <> None,
               "--trace/--metrics");
            ]);
      let governor =
        if quota <= 0 then Governor.default_config else Governor.governed ~quota_bytes:quota
      in
      let driver_config =
        Sabotage.driver_config sabotage
          { State.default_config with State.governor; durable_wal = crash_points > 0 }
      in
      let driver_config =
        if vbuffer <= 0 then driver_config
        else { driver_config with State.vbuffer_bytes = vbuffer }
      in
      let gc_cfg =
        Sabotage.gc_config sabotage { Gc_backend.default_config with Gc_backend.kind = gc_backend }
      in
      let engine = Gc_backend.wrap_engine gc_cfg (engine driver_config) in
      match mode with
      | `Domains ->
          run_domains_campaigns ename engine seed campaigns duration sabotage quota require_shed
            ndomains vbuffer gc_cfg
      | `Sim ->
          run_sim_campaigns ename engine seed campaigns duration sabotage quota require_shed
            crash_points ckpt_ms stalls zombie_llts require_containment trace_out metrics_out
            vbuffer gc_cfg
    end
  with Invalid_argument msg -> usage msg

let cmd =
  let engine =
    Arg.(
      value
      & opt engine_conv ("pg-vdriver", fun config schema -> Siro_engine.create ~driver_config:config ~flavor:`Pg schema)
      & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc:"Engine under test: pg-vdriver or mysql-vdriver.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Base seed; drives everything.") in
  let campaigns =
    Arg.(value & opt int 4 & info [ "campaigns" ] ~doc:"Independent seeded campaigns to run.")
  in
  let duration =
    Arg.(value & opt float 4. & info [ "d"; "duration" ] ~doc:"Simulated seconds per campaign.")
  in
  let sabotage =
    Arg.(
      value
      & opt (some (enum sabotage_rows)) None
      & info [ "sabotage" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Arm one row of the sabotage registry: a deliberately broken variant of the \
                system that one of the row's named invariants must catch (a clean exit is a \
                harness bug). $(docv) is %s. $(b,zone-widen) widens every dead zone by one \
                timestamp; $(b,quota-ignore) makes the governor ignore its --quota; \
                $(b,skip-tail-check) replays the WAL tail without CRC verification (implies \
                the durable WAL); $(b,no-watchdog) keeps the liveness ladder observing but \
                never acting; $(b,gc-)K runs GC backend K with its planted defect. The \
                sharded rows need --shards: $(b,skip-coord-decision) commits 2PC without \
                forcing the decision record, $(b,apply-on-timeout) and $(b,ack-forge) break \
                the termination protocol and the participant ack, and \
                $(b,ack-before-replicate) and $(b,stale-primary-writes) break replication \
                (need --replicas)."
               (Arg.doc_alts_enum sabotage_rows)))
  in
  let quota =
    Arg.(
      value & opt int 0
      & info [ "quota" ] ~docv:"BYTES"
          ~doc:
            "Arm the version-space governor with this hard quota; the campaign then also \
             asserts the post-maintenance space envelope and the health-ladder honesty \
             (0 = governor disabled).")
  in
  let require_shed =
    Arg.(
      value & flag
      & info [ "require-shed" ]
          ~doc:
            "Fail unless at least one campaign climbed the ladder to Shedding and recovered \
             to Normal by the end of the run.")
  in
  let crash_points =
    Arg.(
      value & opt int 0
      & info [ "crash-points" ] ~docv:"N"
          ~doc:
            "Switch the engine to the durable typed-record WAL and schedule N deterministic \
             power losses per campaign by WAL position, each with a fabricated torn tail; \
             recovery replays the surviving log and the post-recovery invariants must hold \
             (0 = no crash points, non-durable engine unless --sabotage skip-tail-check).")
  in
  let ckpt_ms =
    Arg.(
      value & opt int 250
      & info [ "ckpt-ms" ] ~docv:"MS"
          ~doc:"Fuzzy-checkpoint period for durable campaigns, in simulated milliseconds.")
  in
  let stalls =
    Arg.(
      value & flag
      & info [ "stalls" ]
          ~doc:
            "Draw cleaner-stall and collab-delay rates into the fault plan (the cleaning loop \
             hangs for 150-600 ms at a time) and arm the liveness watchdog; the campaign must \
             stay within the computable reclamation-lag bound.")
  in
  let zombie_llts =
    Arg.(
      value & flag
      & info [ "zombie-llts" ]
          ~doc:
            "Draw LLT-zombie injections (a driver that stops issuing operations but keeps its \
             snapshot pinned) and arm the liveness watchdog; harmful zombies must be shed \
             through the lease path.")
  in
  let require_containment =
    Arg.(
      value & flag
      & info [ "require-containment" ]
          ~doc:
            "Fail unless the liveness pressure was really exercised: at least one watchdog \
             escalation under --stalls, at least one zombie cancel under --zombie-llts.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event JSON covering every campaign (one thread per \
             pipeline subsystem, fault injections on their own track).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Write the flat metrics JSON aggregated across all campaigns.")
  in
  let mode =
    Arg.(
      value
      & opt (enum [ ("sim", `Sim); ("domains", `Domains) ]) `Sim
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Execution substrate: $(b,sim) (deterministic, the default) or $(b,domains) — \
             each campaign then runs twice under the same crash-free plan, once on the Sim \
             scheduler and once on real OCaml 5 domains, and the run digests must agree on \
             top of both sides passing every online invariant.")
  in
  let ndomains =
    Arg.(
      value & opt int 2
      & info [ "domains" ] ~docv:"N" ~doc:"Domain count for --mode=domains.")
  in
  let shards =
    Arg.(
      value & opt int 0
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Run sharded campaigns: N vDriver pipelines over one snapshot order, with routed \
             OLTP, cross-shard 2PC transactions, epoch-broadcast dead zones and the \
             cross-shard atomicity oracle armed (0 = unsharded, the default).")
  in
  let shard_scenario =
    Arg.(
      value & opt string "uniform"
      & info [ "shard-scenario" ] ~docv:"S"
          ~doc:"Traffic shape across shards: $(b,uniform), $(b,zipf) or $(b,hot).")
  in
  let cross_pct =
    Arg.(
      value & opt int 30
      & info [ "cross-pct" ] ~docv:"PCT"
          ~doc:"Percentage of writing transactions forced to span two shards (2PC traffic).")
  in
  let crash_steps =
    Arg.(
      value & opt int 0
      & info [ "crash-steps" ] ~docv:"N"
          ~doc:
            "Sharded campaigns: schedule N whole-system crashes at seeded global 2PC step \
             indices — power loss at exact points of the prepare/decide/apply/ack/forget \
             sequence; recovery must resolve every orphaned prepare to one outcome on every \
             shard.")
  in
  let gc_backend =
    Arg.(
      value
      & opt gc_backend_conv Gc_backend.Vcutter
      & info [ "gc-backend" ] ~docv:"BACKEND"
          ~doc:
            "GC backend behind Driver.maintain: $(b,vcutter) (the paper's dead-zone design, \
             the default — byte-identical to the un-hooked seed path), $(b,range) \
             (Wei/Fatourou-style per-version range tracking with live-set subtraction) or \
             $(b,bounded) (BBF+-style bounded-space collection with an enforced resident \
             dead-version bound). All three run under the same governor budgets, invariant \
             catalogue and fault plans.")
  in
  let vbuffer =
    Arg.(
      value & opt int 0
      & info [ "vbuffer" ] ~docv:"BYTES"
          ~doc:
            "Override the vBuffer capacity (0 = the 8 MiB default). Dead-zone pruning keeps \
             the buffer so small that default campaigns never harden a segment; a small \
             vBuffer forces steady hardened-store traffic, which is what exercises the \
             cutter-side reclaim paths of every GC backend.")
  in
  let net_loss =
    Arg.(
      value & opt float 0.
      & info [ "net-loss" ] ~docv:"P"
          ~doc:
            "Sharded campaigns: per-message drop probability on the 2PC/epoch fabric \
             (0 = the provably transparent pass-through). Lost votes retry under \
             per-channel backoff; lost decisions resend until acked.")
  in
  let net_dup =
    Arg.(
      value & opt float 0.
      & info [ "net-dup" ] ~docv:"P"
          ~doc:
            "Sharded campaigns: per-message duplication probability — every receive path \
             must be idempotent for the run to stay clean.")
  in
  let net_delay_us =
    Arg.(
      value & opt int 0
      & info [ "net-delay-us" ] ~docv:"US"
          ~doc:
            "Sharded campaigns: uniform per-message delay bound in simulated microseconds \
             (drawn jitter — what reorders messages in flight).")
  in
  let partitions =
    Arg.(
      value & opt int 0
      & info [ "partitions" ] ~docv:"N"
          ~doc:
            "Sharded campaigns: schedule N seeded bidirectional partitions per campaign, \
             each isolating a drawn subset of shards for a drawn window that heals before \
             the horizon. Single-shard traffic must keep committing; cross-shard \
             transactions spanning the cut fail fast; in-doubt participants must resolve \
             after heal.")
  in
  let replicas =
    Arg.(
      value & opt int 0
      & info [ "replicas" ] ~docv:"R"
          ~doc:
            "Sharded campaigns: give every shard R backup nodes mirroring the primary's WAL \
             by typed CRC'd frame shipping, with commits acknowledged only at the \
             sync-replication quorum, lease-based deterministic failover on node death, and \
             the no-committed-loss / no-split-brain / bounded-failover-lag oracles armed \
             (0 = the replication layer is absent and the campaign is byte-identical to the \
             unreplicated driver).")
  in
  let rep_quorum =
    Arg.(
      value & opt int 0
      & info [ "rep-quorum" ] ~docv:"Q"
          ~doc:
            "Sync-replication quorum, counting the primary (0 = a majority of replicas+1). \
             Q=1 acknowledges on the primary alone — safe only against backup deaths.")
  in
  let kill_nodes =
    Arg.(
      value & flag
      & info [ "kill-nodes" ]
          ~doc:
            "Draw a seeded whole-node kill/revive plan per campaign (victims drawn per \
             arrival): dead primaries expire their lease and the highest-caught-up backup is \
             promoted under a bumped fencing epoch; every acknowledged commit must survive.")
  in
  let kill_steps =
    Arg.(
      value & opt int 0
      & info [ "kill-steps" ] ~docv:"N"
          ~doc:
            "Sharded replicated campaigns: schedule N node kills at seeded global \
             replication-step indices — death lands exactly between a ship/ack/quorum \
             step's intent and its effect.")
  in
  Cmd.v
    (Cmd.info "chaos" ~doc:"Seeded fault-injection campaigns with online invariant checking.")
    Term.(
      const run_campaigns $ engine $ seed $ campaigns $ duration $ sabotage $ quota
      $ require_shed $ crash_points $ ckpt_ms $ stalls $ zombie_llts $ require_containment
      $ trace_out $ metrics_out $ mode $ ndomains $ shards $ shard_scenario $ cross_pct
      $ crash_steps $ vbuffer $ gc_backend $ net_loss $ net_dup $ net_delay_us $ partitions
      $ replicas $ rep_quorum $ kill_nodes $ kill_steps)

let () = exit (Cmd.eval cmd)
