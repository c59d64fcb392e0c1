type mode = Substrate.mode = Sim | Domains of { domains : int }

let epoch_period = Clock.ms 5
let net_tick = Clock.ms 1 (* resolver sweep period (faulty configs only) *)
let rep_lease = Clock.ms 50 (* primary authority lease *)
let rep_sweep = Clock.ms 2 (* failover scheduler period *)
let rep_lag_bound = Clock.ms 250 (* bounded-failover-lag budget *)

(* Past the 50 ms lease: a killed node stays down long enough for the
   lease to expire and a successor to be promoted, so every kill
   exercises a real failover (and the fencing of the returning node).
   Below the lease, a fast reboot would rescue the primary's timeline
   instead. *)
let revive_after = Clock.ms 80

type cfg = {
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

(* Plans are immutable, so every default config shares this one. *)
let sweep_only = Fault_plan.create ~check_period:(Clock.ms 50) ()

let default ~shards base =
  {
    base;
    shards;
    scenario = Shard_router.Uniform_shards;
    cross_pct = 30;
    faults = sweep_only;
    crash_steps = [];
    net = Net_fault.none;
    replicas = 0;
    rep_quorum = None;
    kill_steps = [];
    sabotage = None;
  }

(* Anything that makes the fabric non-transparent: the resolver process
   must run, and the digest grows a net block. *)
let net_active cfg =
  (not (Net_fault.is_none cfg.net))
  || match cfg.sabotage with Some (Sabotage.Net _) -> true | _ -> false

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

exception Crash_now
(* Raised by the 2PC step hook to die at an exact protocol point; caught
   by the owning worker, which then runs the whole-system restart. *)

let viols_of_pairs ps =
  List.map (fun (invariant, detail) -> { Invariant.invariant; detail }) ps

(* ------------------------------------------------------------------ *)
(* Replication plumbing. *)

let rep_total f r ~shards =
  let acc = ref 0 in
  for sid = 0 to shards - 1 do
    acc := !acc + f r ~sid
  done;
  !acc

(* Arm the replication layer when configured: attach the group's devices
   and install the kill-step hook. Steps are counted globally across
   shards, and a scheduled kill lands between a step's intent and its
   send — exactly the windows the acceptance campaigns probe. The hook
   only marks nodes dead (never raises); the group's end-of-call
   re-checks turn the death into refused votes and unacked commits. *)
let setup_replicas (cfg : cfg) g =
  if cfg.replicas = 0 then None
  else begin
    let r =
      Replica.create ?quorum:cfg.rep_quorum ~lease:rep_lease ~replicas:cfg.replicas
        ~wals:(Shard_group.wals g) ()
    in
    Shard_group.attach_replicas g r;
    Sabotage.arm_replica cfg.sabotage r;
    let kill_steps = ref cfg.kill_steps in
    let steps = ref 0 in
    Replica.set_on_step r (fun ~now step ->
        incr steps;
        match !kill_steps with
        | p :: rest when !steps >= p -> (
            kill_steps := rest;
            let sid = Replica.rstep_sid step in
            let victim =
              match step with
              | Replica.R_ack { node; _ } -> Some node
              | Replica.R_ship _ | Replica.R_quorum _ | Replica.R_promote _ ->
                  Replica.primary r ~sid
            in
            match victim with
            | Some node -> ignore (Replica.kill r ~sid ~node ~now)
            | None -> ())
        | _ -> ());
    Some r
  end

(* One failover-scheduler beat: plan-driven kills and revives (victims
   drawn from the runner's own stream, never the workload's), age-based
   revives so kill-step campaigns recover even without a revive process,
   the lease sweep itself, and the online replication checks. Returns
   the violation rows observed this beat. *)
let failover_beat (cfg : cfg) r ~plan ~node_rng ~dead_since ~note ~now =
  (match Fault_plan.poll plan ~now with
  | [] -> ()
  | due ->
      List.iter
        (function
          | Fault_plan.Node_kill ->
              let sid = Rng.int node_rng cfg.shards in
              let node = Rng.int node_rng (cfg.replicas + 1) in
              if Replica.kill r ~sid ~node ~now then note "node-kill"
          | Fault_plan.Node_revive -> (
              match Replica.dead_nodes r with
              | (sid, node) :: _ -> if Replica.revive r ~sid ~node ~now then note "node-revive"
              | [] -> ())
          | _ -> ())
        due);
  let dead = Replica.dead_nodes r in
  let stale =
    Hashtbl.fold
      (fun k (_ : Clock.time) acc -> if List.mem k dead then acc else k :: acc)
      dead_since []
  in
  List.iter (Hashtbl.remove dead_since) stale;
  List.iter
    (fun (sid, node) ->
      match Hashtbl.find_opt dead_since (sid, node) with
      | None -> Hashtbl.replace dead_since (sid, node) now
      | Some since ->
          if now - since >= revive_after && Replica.revive r ~sid ~node ~now
          then begin
            Hashtbl.remove dead_since (sid, node);
            note "node-revive"
          end)
    dead;
  Replica.sweep r ~now;
  Replica.check_no_split_brain r @ Replica.check_failover_lag r ~bound:rep_lag_bound ~now

(* The client-visible commit ledger the loss oracle audits: everything
   the group acknowledged plus anything a stale claimant fabricated. *)
let rep_acked g r = Shard_group.acked g @ Replica.stale_acked r

(* ------------------------------------------------------------------ *)
(* The campaign: one process set on either substrate. Sim is the
   deterministic discrete-event campaign with the full fault surface —
   LSN crash points, crash-at-every-2PC-step, torn tails; Domains runs
   the crash-free campaign on real OCaml 5 domains, statistically (not
   bit-) reproducible — compare with {!digest_diff}. *)

let run ?(mode = Sim) (cfg : cfg) =
  let plan = cfg.faults in
  let crash_points = Fault_plan.crash_points plan in
  let crash_faults = crash_points <> [] || cfg.crash_steps <> [] || Fault_plan.torn_tail plan in
  let node_faults, others =
    List.partition
      (function Fault_plan.Node_kill | Fault_plan.Node_revive -> true | _ -> false)
      (Fault_plan.actions plan)
  in
  if cfg.shards < 1 then invalid_arg "Shard_runner.run: need at least one shard";
  if cfg.replicas < 0 then invalid_arg "Shard_runner.run: negative replica count";
  if others <> [] then
    invalid_arg
      ("Shard_runner.run: the plan injects "
      ^ String.concat "/" (List.map Fault_plan.action_name others)
      ^ ", which the sharded runner does not implement (only node kills and revives)");
  (* Whole-node kills and power-loss crashes do not compose: [Wal.crash]
     truncates to the flushed prefix non-deterministically relative to
     what backups already mirrored, leaving LSN gaps the contiguous
     [Wal.receive] protocol is designed to refuse. *)
  if cfg.replicas > 0 && crash_faults then
    invalid_arg "Shard_runner.run: crash faults are incompatible with replication";
  if
    cfg.replicas = 0
    && (cfg.kill_steps <> []
       || node_faults <> []
       || cfg.rep_quorum <> None
       || match cfg.sabotage with Some (Sabotage.Failover _) -> true | _ -> false)
  then
    invalid_arg
      "Shard_runner.run: node faults, a quorum and failover sabotage require replicas > 0";
  if cfg.sabotage = Some Sabotage.Stale_cursor && crash_points = [] && cfg.crash_steps = []
  then invalid_arg "Shard_runner.run: the stale-cursor sabotage needs crash points or crash steps";
  Substrate.require ~who:"Shard_runner.run" mode [ (Substrate.Crash_faults, crash_faults) ];
  Failpoint.with_scope @@ fun () ->
  let base = cfg.base in
  let g = Shard_group.create ~net:cfg.net ~shards:cfg.shards base.Exp_config.schema in
  Sabotage.arm_group cfg.sabotage g;
  let repl = setup_replicas cfg g in
  let faulty = net_active cfg in
  (* Replication makes the fabric non-transparent the same way net
     faults do: the resolver must tick and the group must quiesce. *)
  let active = faulty || repl <> None in
  let row = Exp_config.pattern_at base 0.0 in
  let router = Shard_router.create ~row ~shards:cfg.shards base.Exp_config.schema cfg.scenario in
  let sub = Substrate.create mode in
  let master_rng = Rng.create base.Exp_config.seed in
  let horizon = Clock.seconds base.Exp_config.duration_s in
  let report = Fault_report.create () in
  let record_all = Invariant.record report in
  let commits = ref 0 in
  let conflicts = ref 0 in
  let llt_reads = ref 0 in
  let crashes = ref 0 in
  let recoveries = ref [] in
  let peak_space = ref 0 in
  let drop_slots : (Clock.time -> unit) Vec.t = Vec.create () in
  (* Prune audits on every shard: unsound shard-local discards under the
     (possibly stale) epoch snapshot surface immediately. *)
  Array.iter
    (fun (sh : Shard.t) ->
      Invariant.install_prune_audit sh.Shard.driver ~on_violation:(fun ~now viol ->
          record_all ~at:now [ viol ]))
    (Shard_group.shards g);
  (* Crash-at-every-2PC-step: the hook fires after each durable protocol
     action; reaching a scheduled step raises out of the commit in
     progress, leaving the system exactly as the step left it. *)
  let crash_steps = ref cfg.crash_steps in
  Shard_group.set_on_step g
    (Some
       (fun n _ ->
         match !crash_steps with
         | p :: rest when n >= p ->
             crash_steps := rest;
             raise Crash_now
         | _ -> ()));
  (* The sweep's incremental log oracles, one cursor per shard, made
     at the first sweep. A replicated run feeds them the acks made
     since their last call. *)
  let sweep = ref None in
  let new_acks =
    match repl with
    | None -> fun () -> None
    | Some r ->
        let seen = ref 0 and stale_seen = ref 0 in
        fun () ->
          let fresh = Shard_group.acked_from g !seen in
          let stale = List.filteri (fun i _ -> i >= !stale_seen) (Replica.stale_acked r) in
          seen := !seen + List.length fresh;
          stale_seen := !stale_seen + List.length stale;
          Some (fresh @ stale)
  in
  let check_cursors ~at ?analyses ?reference wals =
    match !sweep with
    | Some s ->
        record_all ~at
          (Invariant.check_analysis_cursors s ?analyses ?reference ?acked:(new_acks ()) wals)
    | None -> ()
  in
  let torn_rr = ref 0 in
  let do_crash_restart ~now =
    check_cursors ~at:now (Shard_group.wals g);
    incr crashes;
    Fault_report.note_fault report "crash-restart";
    Vec.iter (fun drop -> drop now) drop_slots;
    Shard_group.crash_all g;
    if Fault_plan.torn_tail plan then begin
      (* A fabricated tail frame on a rotating shard: a commit for a
         transaction the surviving prefix says is undecided. Honest
         recovery truncates it by CRC. *)
      let sid = !torn_rr mod cfg.shards in
      incr torn_rr;
      Wal_recovery.inject_torn_commit (Shard_group.shards g).(sid).Shard.wal ~at:now;
      Fault_report.note_fault report "torn-tail"
    end;
    let infos = Shard_group.restart_all g ~now in
    recoveries := List.rev_append infos !recoveries;
    Array.iter
      (fun (sh : Shard.t) -> record_all ~at:now (Invariant.check_post_recovery sh.Shard.driver))
      (Shard_group.shards g);
    record_all ~at:now
      (Invariant.check_cross_shard_atomicity
         ~clog:(Txn_manager.commit_log (Shard_group.mgr g))
         (Shard_group.wals g))
  in
  (* OLTP workers, routed across shards. A drawn fraction of writing
     transactions is forced to touch a second shard — the 2PC traffic. *)
  let spawn_worker i =
    let rng = Rng.split master_rng in
    let pending = ref None in
    Vec.push drop_slots (fun _now -> pending := None);
    Substrate.spawn sub ~name:(Printf.sprintf "worker-%d" i) ~at:0 (fun now ->
        match !pending with
        | None ->
            if now >= horizon then Scheduler.Finished
            else begin
              let txn, t = Shard_group.begin_txn g ~now in
              pending := Some txn;
              Scheduler.Sleep_until t
            end
        | Some txn -> (
            pending := None;
            let t = ref now in
            let cross =
              cfg.shards > 1
              && base.Exp_config.writes_per_txn > 1
              && Rng.int rng 100 < cfg.cross_pct
            in
            try
              for _ = 1 to base.Exp_config.reads_per_txn do
                let rid = Shard_router.sample router rng in
                let _, t' = Shard_group.read g txn ~rid ~now:!t in
                t := t'
              done;
              let first_sid = ref 0 in
              for w = 0 to base.Exp_config.writes_per_txn - 1 do
                let rid =
                  if w = 0 then begin
                    let rid = Shard_router.sample router rng in
                    first_sid := Shard_group.shard_of g ~rid;
                    rid
                  end
                  else if cross then
                    (* Spread the rest of the write set over the other
                       shards, round-robin from the first. *)
                    Shard_router.sample_on router rng
                      ~sid:((!first_sid + w) mod cfg.shards)
                  else Shard_router.sample_on router rng ~sid:!first_sid
                in
                match Shard_group.write g txn ~rid ~payload:(Rng.int rng 1_000_000) ~now:!t with
                | Engine.Committed_path t' -> t := t'
                | Engine.Conflict t' ->
                    t := t';
                    raise Exit
              done;
              match Shard_group.commit_checked g txn ~now:!t with
              | Shard_group.Committed t' ->
                  t := t';
                  incr commits;
                  Scheduler.Sleep_until !t
              | Shard_group.Net_abort t' ->
                  (* Cross-shard fail-fast: a participant was
                     unreachable. Back off hard before offering more
                     load — the degradation contract is pressure, not a
                     wedged pipeline. *)
                  t := t';
                  Scheduler.Sleep_until (!t + Shard_group.net_indoubt_after g)
            with
            | Exit ->
                incr conflicts;
                t := Shard_group.abort g txn ~now:!t;
                Scheduler.Sleep_until !t
            | Shard_group.Shard_down _ ->
                (* A primaryless shard refused the operation. Abort and
                   back off past one lease-expiry-plus-sweep window so
                   the failover scheduler gets to promote before this
                   worker offers load again. *)
                t := Shard_group.abort g txn ~now:!t;
                Scheduler.Sleep_until (!t + rep_lease + (2 * rep_sweep))
            | Crash_now ->
                (* The 2PC step hook killed the system mid-commit. The
                   in-flight transaction (ours included) dies with it;
                   recovery decides every orphaned prepare from the
                   logs. *)
                do_crash_restart ~now:!t;
                Scheduler.Sleep_until (!t + Clock.us 100)))
  in
  for i = 0 to base.Exp_config.workers - 1 do
    spawn_worker i
  done;
  (* LLT fleet: long read-only scans pinning global snapshots — what
     makes stale-epoch pruning and the space curves interesting. *)
  List.iteri
    (fun gi { Exp_config.start_s; duration_s; count } ->
      for li = 0 to count - 1 do
        let rng = Rng.split master_rng in
        let state = ref None in
        Vec.push drop_slots (fun _now -> state := None);
        let llt_end = Clock.seconds (start_s +. duration_s) in
        Substrate.spawn sub
          ~name:(Printf.sprintf "llt-%d-%d" gi li)
          ~at:(Clock.seconds start_s)
          (fun now ->
            match !state with
            | None ->
                if now >= llt_end || now >= horizon then Scheduler.Finished
                else begin
                  let txn, t = Shard_group.begin_txn g ~now in
                  state := Some txn;
                  Scheduler.Sleep_until t
                end
            | Some txn ->
                if now >= llt_end || now >= horizon then begin
                  state := None;
                  ignore (Shard_group.commit g txn ~now);
                  Scheduler.Finished
                end
                else begin
                  let rid = Shard_router.sample router rng in
                  match Shard_group.read g txn ~rid ~now with
                  | _, t ->
                      incr llt_reads;
                      Scheduler.Sleep_until t
                  | exception Shard_group.Shard_down _ ->
                      (* The shard died (or fenced this pre-failover
                         snapshot): abort the scan and restart it fresh —
                         holding the snapshot pinned forever would block
                         pruning groupwide. *)
                      state := None;
                      let t = Shard_group.abort g txn ~now in
                      Scheduler.Sleep_until (t + rep_lease + (2 * rep_sweep))
                end)
      done)
    base.Exp_config.llts;
  (* Background maintenance across every shard. *)
  Substrate.spawn sub ~name:"gc" ~at:base.Exp_config.gc_period (fun now ->
      if now >= horizon then Scheduler.Finished
      else begin
        let t = Shard_group.maintenance g ~now in
        Scheduler.Sleep_until (max t (now + base.Exp_config.gc_period))
      end);
  (* The epoch broadcaster: the only process that reads the global live
     table for pruning purposes. *)
  Substrate.every sub ~name:"epoch" ~period:epoch_period ~until:horizon (fun now ->
      ignore (Shard_group.broadcast ~now g));
  (* The net resolver: pump due frames, resend unacked decisions, run
     the in-doubt termination protocol. Spawned only for active fault
     configs, so the transparent fabric adds no scheduler process (and
     keeps dispatch-probe crash timing byte-identical). *)
  if active then
    Substrate.every sub ~name:"net" ~period:net_tick ~until:horizon (fun now ->
        try Shard_group.tick g ~now with Crash_now -> do_crash_restart ~now);
  (* The failover scheduler: node-fault plan polling, age-based revives,
     lease sweeps / promotions, and the online replication checks. *)
  (match repl with
  | None -> ()
  | Some r ->
      let plan = Fault_plan.cursor plan in
      let node_rng = Rng.create (base.Exp_config.seed lxor 0x6b696c6c) in
      let dead_since = Hashtbl.create 8 in
      Substrate.every sub ~name:"failover" ~period:rep_sweep ~until:horizon (fun now ->
          record_all ~at:now
            (viols_of_pairs
               (failover_beat cfg r ~plan ~node_rng ~dead_since
                  ~note:(Fault_report.note_fault report) ~now))));
  (* Periodic invariant sweep: the per-shard catalogue, then the log
     oracles over every shard's log — cross-shard atomicity, the
     coordinator-decision check (which catches a skipped decision with
     no crash at all) and, replicated, the loss oracle. A cursor per
     shard decodes only the frames logged since the last sweep and
     folds them into that log's recovery expectation; the oracles judge
     again only the transactions whose outcome moved, and report every
     violation still standing again. *)
  let spawn_invariants () =
    Substrate.every sub ~name:"invariants" ~period:(Fault_plan.check_period plan) ~until:horizon
      (fun now ->
        Fault_report.note_check report;
        Array.iter
          (fun (sh : Shard.t) -> record_all ~at:now (Invariant.check_all sh.Shard.driver))
          (Shard_group.shards g);
        (* The loss oracle runs continuously, not just at the end: an
           acked commit missing from the surviving logs is a violation
           at every sweep between the kill that lost it and the
           checkpoint frontier that archives it. *)
        let s =
          match !sweep with
          | Some s -> s
          | None ->
              let cursors = Array.init cfg.shards (fun _ -> Sabotage.cursor cfg.sabotage ()) in
              let s = Invariant.sweep cursors in
              sweep := Some s;
              s
        in
        record_all ~at:now (Invariant.run_sweep s ?acked:(new_acks ()) (Shard_group.wals g)))
  in
  (* Replicated runs register the sweep before the checkpointer: their
     periods share grid instants, and a sweep must observe each ordinary
     checkpoint's instant before the checkpointer archives the epoch —
     otherwise a loss from a promotion landing within one check period
     of the checkpoint could be aged out unseen. Unreplicated runs keep
     the historical registration order (dispatch order at shared
     instants is part of their byte-stable behavior). *)
  if repl <> None then spawn_invariants ();
  (* Fuzzy checkpoints, every shard in turn. *)
  if base.Exp_config.ckpt_period_s > 0. then begin
    let period = max 1 (Clock.seconds base.Exp_config.ckpt_period_s) in
    Substrate.every sub ~name:"checkpointer" ~period ~until:horizon (fun now ->
        Array.iter
          (fun (sh : Shard.t) ->
            match sh.Shard.engine.Engine.checkpoint with
            | Some ckpt -> ckpt ~now
            | None -> ())
          (Shard_group.shards g))
  end;
  (* Sampler: peak space over the group. *)
  let sample_period = max 1 (Clock.seconds base.Exp_config.sample_period_s) in
  Substrate.every sub ~name:"sampler" ~period:sample_period ~until:horizon (fun _ ->
      let s = Shard_group.sample g in
      if s.Engine.version_bytes > !peak_space then peak_space := s.Engine.version_bytes);
  if repl = None then spawn_invariants ();
  (* Crash points in global log position: power loss the first time the
     summed LSN reaches each point, checked at every dispatch. *)
  if Substrate.supports mode Substrate.Crash_faults then begin
    let crash_points = ref crash_points in
    Substrate.on_dispatch sub (fun ~name:_ ~now ->
        match !crash_points with
        | p :: rest when Shard_group.total_lsn g >= p ->
            crash_points := rest;
            do_crash_restart ~now
        | _ -> ())
  end;
  let engine_failed =
    try
      ignore (Substrate.run sub ~until:horizon);
      false
    with exn ->
      Fault_report.record report ~at:(Substrate.now sub) ~invariant:"engine-failure"
        ~detail:(Printexc.to_string exn);
      true
  in
  Shard_group.set_on_step g None;
  (* Post-horizon settlement for faulty fabrics: drain in-flight
     frames and resolve every in-doubt transaction the horizon cut
     off (a never-healing partition legitimately leaves residue; the
     liveness check below skips still-severed pairs). *)
  let endt =
    if active && not engine_failed then Shard_group.quiesce g ~now:horizon else horizon
  in
  if not engine_failed then Shard_group.finish g ~now:horizon;
  Array.iter (fun (sh : Shard.t) -> Invariant.remove_prune_audit sh.Shard.driver) (Shard_group.shards g);
  (* End-of-run verdicts: the full catalogue per shard, and the
     cross-shard oracle over every surviving log. *)
  Array.iter
    (fun (sh : Shard.t) -> record_all ~at:horizon (Invariant.check_all sh.Shard.driver))
    (Shard_group.shards g);
  let final_wals = Shard_group.wals g in
  let final_analyses = Invariant.analyze_shard_logs final_wals in
  let atomicity = Invariant.check_cross_shard_atomicity ~analyses:final_analyses final_wals in
  let lost =
    match repl with
    | None -> []
    | Some r ->
        Invariant.check_no_committed_loss ~analyses:final_analyses ~acked:(rep_acked g r) final_wals
  in
  check_cursors ~at:horizon ~analyses:final_analyses ~reference:(atomicity @ lost) final_wals;
  record_all ~at:horizon atomicity;
  if active then begin
    record_all ~at:endt (viols_of_pairs (Shard_group.check_indoubt_liveness g ~now:endt));
    record_all ~at:endt (viols_of_pairs (Shard_group.check_epoch_lag g ~now:endt))
  end;
  (* Replication verdicts: split-brain and lag over the final node
     state, and the loss oracle over the authoritative (post-failover)
     devices against the full client-visible ack ledger. *)
  (match repl with
  | None -> ()
  | Some r ->
      record_all ~at:endt (viols_of_pairs (Replica.check_no_split_brain r));
      record_all ~at:endt
        (viols_of_pairs (Replica.check_failover_lag r ~bound:rep_lag_bound ~now:endt));
      record_all ~at:endt lost);
  let final = Shard_group.sample g in
  if final.Engine.version_bytes > !peak_space then peak_space := final.Engine.version_bytes;
  let tput = float_of_int !commits /. Float.max 1e-9 base.Exp_config.duration_s in
  let per_shard name f =
    List.init cfg.shards (fun sid -> Run_digest.int (Printf.sprintf "%s%d" name sid) (f ~sid))
  in
  let digest =
    {
      d_mode = (match mode with Sim -> "sim" | Domains _ -> "domains");
      d_shards = cfg.shards;
      d_commits = !commits;
      d_conflicts = !conflicts;
      d_cross_commits = Shard_group.cross_commits g;
      d_violations = Fault_report.violation_count report;
      d_peak_space = !peak_space;
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
            let promotions = rep_total Replica.promotions r ~shards:cfg.shards in
            {
              rd_replicas = cfg.replicas;
              rd_quorum = Replica.quorum r;
              rd_kills = Replica.kills r;
              rd_revives = Replica.revives r;
              rd_promotions = promotions;
              rd_fencings = rep_total Replica.fencings r ~shards:cfg.shards;
              rd_stale_acks = Replica.stale_ack_count r;
              (* engine restarts: crash recoveries + promotions *)
              rd_restarts = List.length !recoveries + promotions;
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
    @ Run_digest.recovery ~crashes:!crashes !recoveries
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
    commits = !commits;
    conflicts = !conflicts;
    cross_commits = Shard_group.cross_commits g;
    single_commits = Shard_group.single_commits g;
    two_pc_steps = Shard_group.two_pc_steps g;
    llt_reads = !llt_reads;
    crashes = !crashes;
    recoveries = List.rev !recoveries;
    report;
    peak_space = !peak_space;
    final_space = final.Engine.version_bytes;
    epochs = Epoch.epoch (Shard_group.epoch g);
    throughput = tput;
    net_aborts = Shard_group.net_aborts g;
    indoubt_max_us = Shard_group.max_indoubt_residence g / 1000;
    indoubt_mean_us = Shard_group.mean_indoubt_residence g /. 1000.;
    failover_lags_us =
      (match repl with
      | None -> []
      | Some r -> List.map (fun (_, l) -> l / 1000) (Replica.lags r));
    digest;
  }
