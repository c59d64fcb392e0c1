(* Seeded chaos campaigns: run the vDriver engines under a randomized
   fault plan with the full invariant catalogue armed, and fail loudly
   if any safety property breaks.

   Everything — workload, fault plan, victim selection, report — is a
   deterministic function of the seed, so `chaos --seed N` prints the
   same bytes on every machine and every run. That makes a violation a
   one-line bug report: the seed reproduces it.

   Every campaign, sharded (`--shards`) or not, runs through one loop:
   the campaign on Sim with every fault its flags ask for, then, under
   `--mode=domains`, its crash-free variant on both substrates with the
   digests compared. Which flags compose is one table in
   [run_campaigns]; the per-campaign workload, plan and schedules come
   from {!Campaign}, and each flag's meaning is in `chaos --help`.

   `--sabotage NAME` arms one row of the {!Sabotage} registry — a
   deliberately broken variant of the system. The run is then
   *expected* to be caught by one of the row's named invariants: a
   clean exit is a harness bug. Without the flag the banner reads
   `sabotage=0`. *)

open Cmdliner

let engine_conv = Arg.enum (List.map (fun (name, e) -> (name, (name, e))) Engine_table.vdriver)

let gc_backend_conv =
  Arg.conv
    ( Gc_backend.kind_of_string,
      fun fmt k -> Format.pp_print_string fmt (Gc_backend.kind_name k) )

let sabotage_rows = List.map (fun s -> (Sabotage.name s, s)) Sabotage.all

let usage msg =
  prerr_endline ("chaos: " ^ msg);
  exit 2

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

(* One run of a campaign: its report, its digest, and the unsharded
   runner's result (governor and watchdog summaries). *)
type leg = { report : Fault_report.t; digest : Run_digest.t; result : Runner.result option }

let of_runner r = { report = r.Runner.faults; digest = r.Runner.digest; result = Some r }

let of_shards r =
  {
    report = r.Shard_runner.report;
    digest = Shard_runner.rows r.Shard_runner.digest;
    result = None;
  }

(* A campaign: its fault plan and 2PC crash steps, whether its banner
   line shows the plan (unsharded only), and [run faults crash_steps
   mode], one run under those or a variant of them. *)
type campaign = {
  faults : Fault_plan.t;
  crash_steps : int list;
  show_plan : bool;
  run : Fault_plan.t -> int list -> Substrate.mode -> leg;
}

let run_campaigns (ename, create) seed campaigns duration sabotage quota require_shed
    crash_points ckpt_ms stalls zombie_llts require_containment trace_out metrics_out mode
    ndomains shards shard_scenario cross_pct crash_steps vbuffer gc_backend net_loss net_dup
    net_delay_us partitions replicas rep_quorum kill_nodes kill_steps =
  let sharded = shards > 0 in
  let domains =
    match mode with `Sim -> None | `Domains -> Some (Substrate.Domains { domains = ndomains })
  in
  let net_on = net_loss > 0. || net_dup > 0. || net_delay_us > 0 || partitions > 0 in
  let net_sabotage = match sabotage with Some (Sabotage.Net _) -> true | _ -> false in
  let crash = crash_points > 0 || crash_steps > 0 in
  let recovery_sabotage =
    match sabotage with
    | Some (Sabotage.Skip_tail_check | Sabotage.Discard_past_checkpoint) -> true
    | _ -> false
  in
  let liveness = stalls || zombie_llts || sabotage = Some Sabotage.No_watchdog in
  let obs = trace_out <> None || metrics_out <> None in
  (* The flag-compatibility table: a flag given while its row names a
     problem is a usage error. Domains mode runs each campaign's
     crash-free variant on both substrates, so its rows come from the
     capability table. The unsharded engine is built once for every
     leg, so its durable-WAL flags would reach the Domains leg too. *)
  let unsharded_only =
    if not sharded then None
    else Some "does not compose with --shards (the sharded campaign runs the built-in vcutter path)"
  in
  let sharded_only = if sharded then None else Some "needs --shards" in
  let on_domains requested = Option.bind domains (fun m -> Substrate.unsupported m requested) in
  List.iter
    (fun (flag, given, problem) ->
      if given then Option.iter (fun p -> usage (flag ^ " " ^ p)) problem)
    [
      ("--mode=domains", domains <> None, on_domains []);
      ( "--crash-points/--sabotage skip-tail-check|discard-past-checkpoint",
        (not sharded) && (crash_points > 0 || recovery_sabotage),
        on_domains [ (Substrate.Crash_faults, true) ] );
      ("--quota/--require-shed", quota > 0 || require_shed, unsharded_only);
      ( "--stalls/--zombie-llts/--require-containment",
        stalls || zombie_llts || require_containment,
        unsharded_only );
      ( "--stalls/--zombie-llts/--require-containment/--sabotage no-watchdog",
        liveness || require_containment,
        on_domains [ (Substrate.Watchdog, true) ] );
      ("--trace/--metrics", obs, unsharded_only);
      ("--trace/--metrics", obs, on_domains [ (Substrate.Obs_export, true) ]);
      ("--vbuffer/--gc-backend", vbuffer > 0 || gc_backend <> Gc_backend.Vcutter, unsharded_only);
      ( "--crash-steps/--replicas/--rep-quorum/--kill-nodes/--kill-steps",
        crash_steps > 0 || replicas > 0 || rep_quorum > 0 || kill_nodes || kill_steps > 0,
        sharded_only );
      ("--net-*/--partitions", net_on, sharded_only);
      ( "--net-*/--partitions",
        net_on && shards < 2,
        Some "need at least two shards (--shards=2+)" );
      ( "--sabotage " ^ Option.fold ~none:"" ~some:Sabotage.name sabotage,
        sabotage <> None,
        match sabotage with Some s when Sabotage.sharded s -> sharded_only | _ -> unsharded_only );
      ( "network faults",
        (net_on || net_sabotage) && crash,
        Some
          "and crash schedules are separate campaigns for now — drop \
           --crash-points/--crash-steps or the --net-* flags" );
      ( "--replicas",
        replicas > 0 && crash,
        Some "excludes crash faults: drop --crash-points/--crash-steps" );
    ];
  let opt_int flag n = if n > 0 then Printf.sprintf " %s=%d" flag n else "" in
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
  (* Banner, and the campaign for each seed. *)
  let campaign =
    if sharded then begin
      let scenario =
        match Shard_router.scenario_of_string shard_scenario with
        | Some s -> s
        | None -> usage "unknown --shard-scenario (uniform | zipf | hot)"
      in
      Printf.printf
        "chaos: sharded seed=%d campaigns=%d duration=%.1fs shards=%d scenario=%s cross=%d%%%s%s%s%s%s"
        seed campaigns duration shards
        (Shard_router.scenario_to_string scenario)
        cross_pct (opt_int "crash-points" crash_points) (opt_int "crash-steps" crash_steps)
        (match sabotage with Some s -> " sabotage=" ^ Sabotage.name s | None -> "")
        (if net_on then
           Printf.sprintf " net[loss=%.2f dup=%.2f delay=%dus partitions=%d]" net_loss net_dup
             net_delay_us partitions
         else "")
        (if replicas > 0 then
           Printf.sprintf " replicas=%d%s%s%s" replicas (opt_int "quorum" rep_quorum)
             (if kill_nodes then " kill-nodes" else "")
             (opt_int "kill-steps" kill_steps)
         else "");
      fun seed ->
        let cfg =
          Campaign.sharded ~scenario ~cross_pct ~crash_points ~crash_steps ?sabotage
            ?net:(if net_on then Some (net_loss, net_dup, net_delay_us, partitions) else None)
            ~replicas ~rep_quorum ~kill_nodes ~kill_steps ~seed ~duration ~ckpt_ms ~shards ()
        in
        let run faults crash_steps mode =
          of_shards (Shard_runner.run ~mode { cfg with Shard_runner.faults; crash_steps })
        in
        let { Shard_runner.faults; crash_steps; _ } = cfg in
        { faults; crash_steps; show_plan = false; run }
    end
    else begin
      let gc_cfg =
        Sabotage.gc_config sabotage { Gc_backend.default_config with Gc_backend.kind = gc_backend }
      in
      Printf.printf
        "chaos: engine=%s seed=%d campaigns=%d duration=%.1fs sabotage=%s quota=%d%s%s%s%s gc=%s"
        ename seed campaigns duration
        (match sabotage with None -> "0" | Some s -> Sabotage.name s)
        quota (opt_int "crash-points" crash_points)
        (if stalls then " stalls" else "")
        (if zombie_llts then " zombie-llts" else "")
        (opt_int "vbuffer" vbuffer)
        (Gc_backend.kind_name gc_cfg.Gc_backend.kind);
      let engine =
        Campaign.engine ?sabotage ~quota ~vbuffer ~gc:gc_cfg ~durable:(crash_points > 0) create
      in
      fun seed ->
        let cfg = Campaign.config ~seed ~duration ~ckpt_ms in
        let run faults (_ : int list) mode =
          of_runner (Runner.run ~engine ~faults ?watchdog:wdog ~mode cfg)
        in
        let faults = Campaign.plan ~stalls ~zombies:zombie_llts ~crash_points ~seed () in
        { faults; crash_steps = []; show_plan = true; run }
    end
  in
  (match domains with
  | Some (Substrate.Domains { domains }) -> Printf.printf " mode=domains x%d\n" domains
  | _ -> print_newline ());
  Option.iter
    (fun w ->
      Printf.printf "chaos: liveness lag bound L=%dus (watchdog %s)\n"
        (Watchdog.lag_bound w ~gc_period:Exp_config.default.Exp_config.gc_period / 1000)
        (if w.Watchdog.enabled then "on" else "OFF — sabotage"))
    wdog;
  let violations = ref 0 and mismatches = ref 0 in
  let shed_recoveries = ref 0 and escalations = ref 0 and zombie_cancels = ref 0 in
  let count leg = violations := !violations + Fault_report.violation_count leg.report in
  (* One campaign loop for every deployment and substrate. Each campaign
     runs on Sim with every fault it asks for; under --mode=domains its
     crash-free variant then runs on both substrates (the Sim leg itself
     when it had no crash fault) and the digests must agree. One obs
     scope spans all campaigns: the trace shows them back to back and
     the metrics snapshot aggregates them; the exports are written
     before the exit status is decided, so a failing run still leaves
     them behind. The library's own configuration checks (replication
     against crash faults, node faults or a quorum without replicas, a
     quorum out of range) surface as usage errors. *)
  (try
     Obs_export.with_obs ?trace:trace_out ?metrics:metrics_out (fun () ->
      List.iteri
        (fun i seed ->
          let c = campaign seed in
          let leg = c.run c.faults c.crash_steps Substrate.Sim in
          count leg;
          Format.printf "@[<v>campaign %d seed=%d%t@ %a@]@." i seed
            (fun fmt -> if c.show_plan then Format.fprintf fmt " plan: %a" Fault_plan.pp c.faults)
            Fault_report.pp leg.report;
          Option.iter
            (fun r ->
              escalations := !escalations + r.Runner.watchdog_escalations;
              zombie_cancels := !zombie_cancels + r.Runner.zombie_cancels;
              if quota > 0 then report_governor i ~now:(Clock.seconds duration) shed_recoveries r)
            leg.result;
          Option.iter
            (fun dmode ->
              let honest = Fault_plan.without_crashes c.faults in
              let sim =
                if honest == c.faults && c.crash_steps = [] then leg
                else begin
                  let sim = c.run honest [] Substrate.Sim in
                  count sim;
                  Format.printf "@[<v>campaign %d crash-free sim:@ %a@]@." i Fault_report.pp
                    sim.report;
                  sim
                end
              in
              let dom = c.run honest [] dmode in
              count dom;
              Format.printf "@[<v>campaign %d domains:@ %a@]@." i Fault_report.pp dom.report;
              match Run_digest.diff sim.digest dom.digest with
              | [] -> Printf.printf "campaign %d sim/domains digests agree\n" i
              | msgs ->
                  mismatches := !mismatches + List.length msgs;
                  List.iter (fun m -> Printf.printf "campaign %d MISMATCH: %s\n" i m) msgs)
            domains)
        (Campaign.seeds ~seed campaigns))
   with Invalid_argument msg -> usage msg);
  Printf.printf "chaos: %d%s campaign(s), %d violation(s)%s\n" campaigns
    (if sharded then " sharded" else "")
    !violations
    (if sharded || domains <> None then Printf.sprintf ", %d digest mismatch(es)" !mismatches
     else "");
  if require_shed then
    Printf.printf "chaos: %d campaign(s) shed and recovered to normal\n" !shed_recoveries;
  let fail msg =
    Printf.printf "chaos: FAIL %s\n" msg;
    exit 1
  in
  if !violations > 0 || !mismatches > 0 then exit 1;
  if require_shed && !shed_recoveries = 0 then
    fail "--require-shed: no campaign reached Shedding and recovered";
  if require_containment && stalls && !escalations = 0 then
    fail "--require-containment: --stalls injected but no escalation";
  if require_containment && zombie_llts && !zombie_cancels = 0 then
    fail "--require-containment: --zombie-llts injected but no zombie cancel"

let opt c default ?docv names doc = Arg.value (Arg.opt c default (Arg.info names ?docv ~doc))
let flag names doc = Arg.value (Arg.flag (Arg.info names ~doc))

let cmd =
  let engine =
    opt engine_conv
      ("pg-vdriver", List.assoc "pg-vdriver" Engine_table.vdriver)
      [ "e"; "engine" ] ~docv:"ENGINE" "Engine under test: pg-vdriver or mysql-vdriver."
  in
  let seed = opt Arg.int 42 [ "seed" ] "Base seed; drives everything." in
  let campaigns = opt Arg.int 4 [ "campaigns" ] "Independent seeded campaigns to run." in
  let duration = opt Arg.float 4. [ "d"; "duration" ] "Simulated seconds per campaign." in
  let sabotage =
    opt
      Arg.(some (enum sabotage_rows))
      None [ "sabotage" ] ~docv:"NAME"
      (Printf.sprintf
         "Arm one row of the sabotage registry: a deliberately broken variant of the system \
          that one of the row's named invariants must catch (a clean exit is a harness bug). \
          $(docv) is %s. $(b,zone-widen) widens every dead zone by one timestamp; \
          $(b,quota-ignore) makes the governor ignore its --quota; $(b,skip-tail-check) \
          replays the WAL tail without CRC verification (implies the durable WAL); \
          $(b,discard-past-checkpoint) makes each checkpoint recycle the WAL through its own \
          end, leaving no checkpoint to recover from (implies the durable WAL; caught at a \
          crash restart); $(b,no-watchdog) keeps the liveness ladder observing but never \
          acting; $(b,gc-)K runs GC backend K with its planted defect. The sharded rows need \
          --shards: $(b,skip-coord-decision) commits 2PC without forcing the decision record, \
          $(b,apply-on-timeout) and $(b,ack-forge) break the termination protocol and the \
          participant ack, and $(b,ack-before-replicate) and $(b,stale-primary-writes) break \
          replication (need --replicas), and $(b,stale-cursor) makes the sweep's log-analysis \
          cursors ignore crashes and truncations (needs --crash-points or --crash-steps)."
         (Arg.doc_alts_enum sabotage_rows))
  in
  let quota =
    opt Arg.int 0 [ "quota" ] ~docv:"BYTES"
      "Arm the version-space governor with this hard quota; the campaign then also asserts \
       the post-maintenance space envelope and the health-ladder honesty (0 = governor \
       disabled)."
  in
  let require_shed =
    flag [ "require-shed" ]
      "Fail unless at least one campaign climbed the ladder to Shedding and recovered to \
       Normal by the end of the run."
  in
  let crash_points =
    opt Arg.int 0 [ "crash-points" ] ~docv:"N"
      "Switch the engine to the durable typed-record WAL and schedule N deterministic power \
       losses per campaign by WAL position, each with a fabricated torn tail; recovery \
       replays the surviving log and the post-recovery invariants must hold (0 = no crash \
       points, non-durable engine unless --sabotage skip-tail-check)."
  in
  let ckpt_ms =
    opt Arg.int 250 [ "ckpt-ms" ] ~docv:"MS"
      "Fuzzy-checkpoint period for durable campaigns, in simulated milliseconds."
  in
  let stalls =
    flag [ "stalls" ]
      "Draw cleaner-stall and collab-delay rates into the fault plan (the cleaning loop hangs \
       for 150-600 ms at a time) and arm the liveness watchdog; the campaign must stay within \
       the computable reclamation-lag bound."
  in
  let zombie_llts =
    flag [ "zombie-llts" ]
      "Draw LLT-zombie injections (a driver that stops issuing operations but keeps its \
       snapshot pinned) and arm the liveness watchdog; harmful zombies must be shed through \
       the lease path."
  in
  let require_containment =
    flag [ "require-containment" ]
      "Fail unless the liveness pressure was really exercised: at least one watchdog \
       escalation under --stalls, at least one zombie cancel under --zombie-llts."
  in
  let trace_out =
    opt
      Arg.(some string)
      None [ "trace" ] ~docv:"FILE"
      "Write a Chrome trace_event JSON covering every campaign (one thread per pipeline \
       subsystem, fault injections on their own track)."
  in
  let metrics_out =
    opt
      Arg.(some string)
      None [ "metrics" ] ~docv:"FILE"
      "Write the flat metrics JSON aggregated across all campaigns."
  in
  let mode =
    opt
      Arg.(enum [ ("sim", `Sim); ("domains", `Domains) ])
      `Sim [ "mode" ] ~docv:"MODE"
      "Execution substrate: $(b,sim) (deterministic, the default) or $(b,domains) — each \
       campaign then first runs on Sim exactly as without the flag, and its crash-free \
       variant runs on both the Sim scheduler and real OCaml 5 domains; the run digests must \
       agree on top of every run passing every online invariant."
  in
  let ndomains = opt Arg.int 2 [ "domains" ] ~docv:"N" "Domain count for --mode=domains." in
  let shards =
    opt Arg.int 0 [ "shards" ] ~docv:"N"
      "Run sharded campaigns: N vDriver pipelines over one snapshot order, with routed OLTP, \
       cross-shard 2PC transactions, epoch-broadcast dead zones and the cross-shard \
       atomicity oracle armed (0 = unsharded, the default)."
  in
  let shard_scenario =
    opt Arg.string "uniform" [ "shard-scenario" ] ~docv:"S"
      "Traffic shape across shards: $(b,uniform), $(b,zipf) or $(b,hot)."
  in
  let cross_pct =
    opt Arg.int 30 [ "cross-pct" ] ~docv:"PCT"
      "Percentage of writing transactions forced to span two shards (2PC traffic)."
  in
  let crash_steps =
    opt Arg.int 0 [ "crash-steps" ] ~docv:"N"
      "Sharded campaigns: schedule N whole-system crashes at seeded global 2PC step indices \
       — power loss at exact points of the prepare/decide/apply/ack/forget sequence; \
       recovery must resolve every orphaned prepare to one outcome on every shard."
  in
  let gc_backend =
    opt gc_backend_conv Gc_backend.Vcutter [ "gc-backend" ] ~docv:"BACKEND"
      "GC backend behind Driver.maintain: $(b,vcutter) (the paper's dead-zone design, the \
       default — byte-identical to the un-hooked seed path), $(b,range) (Wei/Fatourou-style \
       per-version range tracking with live-set subtraction) or $(b,bounded) (BBF+-style \
       bounded-space collection with an enforced resident dead-version bound). All three \
       run under the same governor budgets, invariant catalogue and fault plans."
  in
  let vbuffer =
    opt Arg.int 0 [ "vbuffer" ] ~docv:"BYTES"
      "Override the vBuffer capacity (0 = the 8 MiB default). Dead-zone pruning keeps the \
       buffer so small that default campaigns never harden a segment; a small vBuffer forces \
       steady hardened-store traffic, which is what exercises the cutter-side reclaim paths \
       of every GC backend."
  in
  let net_loss =
    opt Arg.float 0. [ "net-loss" ] ~docv:"P"
      "Sharded campaigns: per-message drop probability on the 2PC/epoch fabric (0 = the \
       provably transparent pass-through). Lost votes retry under per-channel backoff; lost \
       decisions resend until acked."
  in
  let net_dup =
    opt Arg.float 0. [ "net-dup" ] ~docv:"P"
      "Sharded campaigns: per-message duplication probability — every receive path must be \
       idempotent for the run to stay clean."
  in
  let net_delay_us =
    opt Arg.int 0 [ "net-delay-us" ] ~docv:"US"
      "Sharded campaigns: uniform per-message delay bound in simulated microseconds (drawn \
       jitter — what reorders messages in flight)."
  in
  let partitions =
    opt Arg.int 0 [ "partitions" ] ~docv:"N"
      "Sharded campaigns: schedule N seeded bidirectional partitions per campaign, each \
       isolating a drawn subset of shards for a drawn window that heals before the horizon. \
       Single-shard traffic must keep committing; cross-shard transactions spanning the cut \
       fail fast; in-doubt participants must resolve after heal."
  in
  let replicas =
    opt Arg.int 0 [ "replicas" ] ~docv:"R"
      "Sharded campaigns: give every shard R backup nodes mirroring the primary's WAL by \
       typed CRC'd frame shipping, with commits acknowledged only at the sync-replication \
       quorum, lease-based deterministic failover on node death, and the no-committed-loss \
       / no-split-brain / bounded-failover-lag oracles armed (0 = the replication layer is \
       absent and the campaign is byte-identical to the unreplicated driver)."
  in
  let rep_quorum =
    opt Arg.int 0 [ "rep-quorum" ] ~docv:"Q"
      "Sync-replication quorum, counting the primary (0 = a majority of replicas+1). Q=1 \
       acknowledges on the primary alone — safe only against backup deaths."
  in
  let kill_nodes =
    flag [ "kill-nodes" ]
      "Draw a seeded whole-node kill/revive plan per campaign (victims drawn per arrival): \
       dead primaries expire their lease and the highest-caught-up backup is promoted under \
       a bumped fencing epoch; every acknowledged commit must survive."
  in
  let kill_steps =
    opt Arg.int 0 [ "kill-steps" ] ~docv:"N"
      "Sharded replicated campaigns: schedule N node kills at seeded global replication-step \
       indices — death lands exactly between a ship/ack/quorum step's intent and its effect."
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
