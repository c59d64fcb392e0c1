type mode = Substrate.mode = Sim | Domains of { domains : int }

type cfg = Process_set.shard_cfg = {
  base : Exp_config.t;
  shards : int;
  scenario : Shard_router.scenario;
  cross_pct : int; (* % of writing transactions forced to span two shards *)
  faults : Fault_plan.t; (* crash points, torn tails, sweep period, node faults *)
  crash_steps : int list; (* global 2PC step indices, ascending *)
  net : Net_fault.config; (* message-fault model; none = transparent *)
  replicas : int; (* backups per shard; 0 = replication layer absent *)
  rep_quorum : int option; (* sync-replication quorum; None = majority *)
  kill_steps : int list; (* global replication-step kill schedule, ascending *)
  sabotage : Sabotage.t option; (* a sharded registry row *)
}

let default = Process_set.default
let rep_lag_bound = Process_set.rep_lag_bound

type net_digest = {
  nd_sent : int;
  nd_dropped : int; (* loss + partition drops *)
  nd_retried : int;
  nd_net_aborts : int; (* cross-shard fail-fasts *)
  nd_indoubt_max_us : int; (* longest in-doubt residence *)
}

type rep_digest = {
  rd_replicas : int;
  rd_quorum : int;
  rd_kills : int;
  rd_revives : int;
  rd_promotions : int; (* summed over shards *)
  rd_fencings : int; (* stale-epoch frames refused, summed *)
  rd_stale_acks : int; (* sabotage-fabricated client acks *)
  rd_restarts : int; (* engine restarts: crash recoveries + promotions *)
  rd_lag_max_us : int; (* worst completed failover lag *)
}

type digest = {
  d_mode : string;
  d_shards : int;
  d_commits : int;
  d_conflicts : int;
  d_cross_commits : int;
  d_violations : int;
  d_peak_space : int;
  d_throughput : float;
  d_net : net_digest option; (* absent for transparent-fabric runs *)
  d_repl : rep_digest option; (* absent when replicas = 0 *)
}

(* The digest's rows. Sim vs Domains agree on safety exactly and on
   load statistically: Domains interleaves for real, so counts drift
   with scheduling. Slack follows the unsharded table: an absolute
   floor for small-run noise (a run short enough that no sampler fired
   can legitimately report a fully pruned peak of zero) under a
   relative band for real divergence. The net and repl blocks appear
   only when their layer ran, so a transparent or unreplicated run keeps
   the JSON of the driver without that layer. *)
let rows d =
  let open Run_digest in
  [
    str "mode" d.d_mode;
    int ~rule:Exact "shards" d.d_shards;
    int ~rule:(Within (0.5, 400.)) "commits" d.d_commits;
    int "conflicts" d.d_conflicts;
    int ~rule:Presence "cross_commits" d.d_cross_commits;
    int ~rule:Zero "violations" d.d_violations;
    int ~rule:(Within (1.0, 65536.)) "peak_space" d.d_peak_space;
    float "throughput" d.d_throughput;
  ]
  (* Net volume drifts with real interleaving, so only gross
     disagreement (beyond 5x plus a floor) counts. *)
  @ (match d.d_net with
    | None -> []
    | Some n ->
        [
          int ~rule:(Within (4.0, 4096.)) "net.sent" n.nd_sent;
          int "net.dropped" n.nd_dropped;
          int "net.retried" n.nd_retried;
          int "net.net_aborts" n.nd_net_aborts;
          int "net.indoubt_max_us" n.nd_indoubt_max_us;
        ])
  (* The replication layer must be configured identically in both
     modes. Kill and promotion volumes come from the same seeded plan,
     but success depends on interleaving-sensitive budget refusals, so
     only gross disagreement counts. Fabricated client acks are a
     sabotage artifact both modes arm alike: presence must agree. *)
  @
  match d.d_repl with
  | None -> []
  | Some r ->
      [
        int ~rule:Exact "repl.replicas" r.rd_replicas;
        int ~rule:Exact "repl.quorum" r.rd_quorum;
        int ~rule:(Within (1.0, 8.)) "repl.kills" r.rd_kills;
        int "repl.revives" r.rd_revives;
        int ~rule:(Within (1.0, 8.)) "repl.promotions" r.rd_promotions;
        int "repl.fencings" r.rd_fencings;
        int ~rule:Presence "repl.stale_acks" r.rd_stale_acks;
        int "repl.restarts" r.rd_restarts;
        int "repl.failover_lag_max_us" r.rd_lag_max_us;
      ]

let digest_to_json d = Run_digest.to_json (rows d)
let digest_diff a b = Run_digest.diff (rows a) (rows b)

type result = {
  commits : int;
  conflicts : int;
  cross_commits : int;
  single_commits : int;
  two_pc_steps : int;
  llt_reads : int;
  crashes : int;
  recoveries : Engine.restart_info list;
  report : Fault_report.t;
  peak_space : int;
  final_space : int;
  epochs : int;
  throughput : float;
  net_aborts : int; (* cross-shard fail-fasts under partition/loss *)
  indoubt_max_us : int;
  indoubt_mean_us : float;
  failover_lags_us : int list; (* completed failovers, oldest first *)
  digest : digest;
}

let run ?(mode = Sim) cfg =
  let g, repl, (st : Process_set.stats) = Process_set.sharded ~mode cfg in
  let report = st.Process_set.report in
  let commits = Series.Rate.total st.Process_set.commit_rate in
  let final = st.Process_set.final in
  let peak_space =
    max (Process_set.peak_of (Series.to_list st.Process_set.space)) final.Engine.version_bytes
  in
  let tput = float_of_int commits /. Float.max 1e-9 cfg.base.Exp_config.duration_s in
  let faulty = Process_set.net_active cfg in
  let per_shard name f =
    List.init cfg.shards (fun sid -> Run_digest.int (Printf.sprintf "%s%d" name sid) (f ~sid))
  in
  let rep_total f r =
    List.fold_left (fun acc sid -> acc + f r ~sid) 0 (List.init cfg.shards Fun.id)
  in
  let digest =
    {
      d_mode = (match mode with Sim -> "sim" | Domains _ -> "domains");
      d_shards = cfg.shards;
      d_commits = commits;
      d_conflicts = st.Process_set.conflicts;
      d_cross_commits = Shard_group.cross_commits g;
      d_violations = Fault_report.violation_count report;
      d_peak_space = peak_space;
      d_throughput = tput;
      d_net =
        (if not faulty then None
         else
           let s = Shard_group.net_stats g in
           Some
             {
               nd_sent = s.Bus.sent;
               nd_dropped = s.Bus.dropped_loss + s.Bus.dropped_partition;
               nd_retried = s.Bus.retried;
               nd_net_aborts = Shard_group.net_aborts g;
               nd_indoubt_max_us = Shard_group.max_indoubt_residence g / 1000;
             });
      d_repl =
        Option.map
          (fun r ->
            let promotions = rep_total Replica.promotions r in
            {
              rd_replicas = cfg.replicas;
              rd_quorum = Replica.quorum r;
              rd_kills = Replica.kills r;
              rd_revives = Replica.revives r;
              rd_promotions = promotions;
              rd_fencings = rep_total Replica.fencings r;
              rd_stale_acks = Replica.stale_ack_count r;
              (* engine restarts: crash recoveries + promotions *)
              rd_restarts = List.length st.Process_set.recoveries + promotions;
              rd_lag_max_us = List.fold_left (fun m (_, l) -> max m l) 0 (Replica.lags r) / 1000;
            })
          repl;
    }
  in
  Run_digest.publish report
    (rows digest
    @ Run_digest.
        [
          int "single_commits" (Shard_group.single_commits g);
          int "two_pc_steps" (Shard_group.two_pc_steps g);
          int "epochs" (Epoch.epoch (Shard_group.epoch g));
        ]
    @ Run_digest.recovery ~crashes:st.Process_set.crashes st.Process_set.recoveries
    @ (if not faulty then []
       else
         Run_digest.int "net.duplicated" (Shard_group.net_stats g).Bus.duplicated
         :: Run_digest.float "net.indoubt_mean_us" (Shard_group.mean_indoubt_residence g /. 1000.)
         :: per_shard "net.indoubt_s" (Shard_group.indoubt_count g)
         @ per_shard "net.epoch_lag_s" (Shard_group.epoch_lag g))
    @
    match repl with
    | None -> []
    | Some r ->
        per_shard "repl.promotions_s" (Replica.promotions r)
        @ per_shard "repl.fencings_s" (Replica.fencings r));
  {
    commits;
    conflicts = st.Process_set.conflicts;
    cross_commits = Shard_group.cross_commits g;
    single_commits = Shard_group.single_commits g;
    two_pc_steps = Shard_group.two_pc_steps g;
    llt_reads = st.Process_set.llt_reads;
    crashes = st.Process_set.crashes;
    recoveries = st.Process_set.recoveries;
    report;
    peak_space;
    final_space = final.Engine.version_bytes;
    epochs = Epoch.epoch (Shard_group.epoch g);
    throughput = tput;
    net_aborts = Shard_group.net_aborts g;
    indoubt_max_us = Shard_group.max_indoubt_residence g / 1000;
    indoubt_mean_us = Shard_group.mean_indoubt_residence g /. 1000.;
    failover_lags_us =
      Option.fold ~none:[] ~some:(fun r -> List.map (fun (_, l) -> l / 1000) (Replica.lags r)) repl;
    digest;
  }
