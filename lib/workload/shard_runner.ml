type mode = Substrate.mode = Sim | Domains of { domains : int }

type cfg = {
  base : Exp_config.t;
  shards : int;
  scenario : Shard_router.scenario;
  cross_pct : int; (* % of writing transactions forced to span two shards *)
  epoch_period : Clock.time;
  crash_points : int list; (* cumulative-LSN power-loss schedule *)
  crash_steps : int list; (* global 2PC step indices, ascending *)
  torn_tail : bool;
  check_period : Clock.time; (* invariant sweep; 0 disables *)
  net : Net_fault.config; (* message-fault model; none = transparent *)
  net_tick : Clock.time; (* resolver sweep period (faulty configs only) *)
  replicas : int; (* backups per shard; 0 = replication layer absent *)
  rep_quorum : int option; (* sync-replication quorum; None = majority *)
  rep_lease : Clock.time; (* primary authority lease *)
  rep_sweep : Clock.time; (* failover scheduler period *)
  rep_lag_bound : Clock.time; (* bounded-failover-lag budget *)
  kill_steps : int list; (* global replication-step kill schedule, ascending *)
  node_faults : Fault_plan.t option; (* Node_kill / Node_revive arrivals *)
  revive_after : Clock.time; (* age at which dead nodes are revived *)
  sabotage : Sabotage.t option; (* a sharded registry row *)
}

let default ~shards base =
  {
    base;
    shards;
    scenario = Shard_router.Uniform_shards;
    cross_pct = 30;
    epoch_period = Clock.ms 5;
    crash_points = [];
    crash_steps = [];
    torn_tail = false;
    check_period = Clock.ms 50;
    net = Net_fault.none;
    net_tick = Clock.ms 1;
    replicas = 0;
    rep_quorum = None;
    rep_lease = Clock.ms 50;
    rep_sweep = Clock.ms 2;
    rep_lag_bound = Clock.ms 250;
    kill_steps = [];
    node_faults = None;
    (* Past the 50 ms lease: by default a killed node stays down long
       enough for the lease to expire and a successor to be promoted,
       so every kill exercises a real failover (and the fencing of the
       returning node). Set below the lease to model fast reboots that
       rescue the primary's timeline instead. *)
    revive_after = Clock.ms 80;
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

let digest_to_json d =
  Jsonx.Obj
    ([
       ("mode", Jsonx.Str d.d_mode);
       ("shards", Jsonx.Int d.d_shards);
       ("commits", Jsonx.Int d.d_commits);
       ("conflicts", Jsonx.Int d.d_conflicts);
       ("cross_commits", Jsonx.Int d.d_cross_commits);
       ("violations", Jsonx.Int d.d_violations);
       ("peak_space", Jsonx.Int d.d_peak_space);
       ("throughput", Jsonx.Float d.d_throughput);
     ]
    @
    (* The net block appears only when a fault config was active, so
       no-fault digests stay byte-identical to the pre-net layer. *)
    (match d.d_net with
    | None -> []
    | Some n ->
        [
          ( "net",
            Jsonx.Obj
              [
                ("sent", Jsonx.Int n.nd_sent);
                ("dropped", Jsonx.Int n.nd_dropped);
                ("retried", Jsonx.Int n.nd_retried);
                ("net_aborts", Jsonx.Int n.nd_net_aborts);
                ("indoubt_max_us", Jsonx.Int n.nd_indoubt_max_us);
              ] );
        ])
    @
    (* Likewise the repl block: [--replicas 0] digests keep the exact
       bytes of the unreplicated driver. *)
    match d.d_repl with
    | None -> []
    | Some r ->
        [
          ( "repl",
            Jsonx.Obj
              [
                ("replicas", Jsonx.Int r.rd_replicas);
                ("quorum", Jsonx.Int r.rd_quorum);
                ("kills", Jsonx.Int r.rd_kills);
                ("revives", Jsonx.Int r.rd_revives);
                ("promotions", Jsonx.Int r.rd_promotions);
                ("fencings", Jsonx.Int r.rd_fencings);
                ("stale_acks", Jsonx.Int r.rd_stale_acks);
                ("restarts", Jsonx.Int r.rd_restarts);
                ("failover_lag_max_us", Jsonx.Int r.rd_lag_max_us);
              ] );
        ])

(* Sim vs Domains agree on safety exactly and on load statistically:
   Domains interleaves for real, so counts drift with scheduling. Slack
   follows Run_digest: an absolute floor for small-run noise (a run
   short enough that no sampler fired can legitimately report a fully
   pruned peak of zero) under a relative band for real divergence. *)
let digest_diff ?(tol = 0.5) a b =
  let acc = ref [] in
  let say fmt = Format.kasprintf (fun s -> acc := s :: !acc) fmt in
  if a.d_shards <> b.d_shards then say "shards: %d vs %d" a.d_shards b.d_shards;
  if a.d_violations <> 0 || b.d_violations <> 0 then
    say "violations: %d (%s) vs %d (%s)" a.d_violations a.d_mode b.d_violations b.d_mode;
  let close ~rel ~abs x y =
    let slack = max abs (int_of_float (rel *. float_of_int (max x y))) in
    Stdlib.abs (x - y) <= slack
  in
  if not (close ~rel:tol ~abs:400 a.d_commits b.d_commits) then
    say "commits: %d vs %d (beyond %.0f%% + 400)" a.d_commits b.d_commits (tol *. 100.);
  if not (close ~rel:1.0 ~abs:65536 a.d_peak_space b.d_peak_space) then
    say "peak_space: %d vs %d (beyond 2x + 64KiB)" a.d_peak_space b.d_peak_space;
  (* Cross-shard traffic must exist in both modes or neither. *)
  if (a.d_cross_commits = 0) <> (b.d_cross_commits = 0) then
    say "cross_commits: %d vs %d" a.d_cross_commits b.d_cross_commits;
  (* Net blocks must agree on presence; volume drifts with real
     interleaving, so only gross disagreement (an order of magnitude
     beyond a floor) counts. *)
  (match (a.d_net, b.d_net) with
  | None, None -> ()
  | Some _, None | None, Some _ -> say "net digest present in one mode only"
  | Some na, Some nb ->
      if not (close ~rel:4.0 ~abs:4096 na.nd_sent nb.nd_sent) then
        say "net sent: %d vs %d (beyond 5x + 4096)" na.nd_sent nb.nd_sent);
  (* The replication layer must be configured identically in both modes;
     kill/promotion volumes come from the same seeded plan but success
     depends on interleaving-sensitive budget refusals, so only gross
     disagreement counts. *)
  (match (a.d_repl, b.d_repl) with
  | None, None -> ()
  | Some _, None | None, Some _ -> say "repl digest present in one mode only"
  | Some ra, Some rb ->
      if ra.rd_replicas <> rb.rd_replicas || ra.rd_quorum <> rb.rd_quorum then
        say "repl config: %d/%d vs %d/%d" ra.rd_replicas ra.rd_quorum rb.rd_replicas
          rb.rd_quorum;
      if not (close ~rel:1.0 ~abs:8 ra.rd_kills rb.rd_kills) then
        say "repl kills: %d vs %d (beyond 2x + 8)" ra.rd_kills rb.rd_kills;
      if not (close ~rel:1.0 ~abs:8 ra.rd_promotions rb.rd_promotions) then
        say "repl promotions: %d vs %d (beyond 2x + 8)" ra.rd_promotions rb.rd_promotions;
      (* Fabricated client acks are a sabotage artifact: both modes run
         the same sabotage knob, so presence must agree. *)
      if (ra.rd_stale_acks = 0) <> (rb.rd_stale_acks = 0) then
        say "repl stale_acks: %d vs %d" ra.rd_stale_acks rb.rd_stale_acks);
  List.rev !acc

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

let make_digest ~mode ~shards ~commits ~conflicts ~cross ~violations ~peak ~tput ~net ~rep
    =
  {
    d_mode = mode;
    d_shards = shards;
    d_commits = commits;
    d_conflicts = conflicts;
    d_cross_commits = cross;
    d_violations = violations;
    d_peak_space = peak;
    d_throughput = tput;
    d_net = net;
    d_repl = rep;
  }

let viols_of_pairs ps =
  List.map (fun (invariant, detail) -> { Invariant.invariant; detail }) ps

(* Net block + per-shard gauges, recorded only for active fault
   configs: transparent runs keep their pre-net report and digest
   bytes. *)
let net_digest_of g =
  let s = Shard_group.net_stats g in
  {
    nd_sent = s.Bus.sent;
    nd_dropped = s.Bus.dropped_loss + s.Bus.dropped_partition;
    nd_retried = s.Bus.retried;
    nd_net_aborts = Shard_group.net_aborts g;
    nd_indoubt_max_us = Shard_group.max_indoubt_residence g / 1000;
  }

let record_net_gauges report g =
  let s = Shard_group.net_stats g in
  Fault_report.set_gauge report "net-sent" s.Bus.sent;
  Fault_report.set_gauge report "net-dropped" (s.Bus.dropped_loss + s.Bus.dropped_partition);
  Fault_report.set_gauge report "net-duplicated" s.Bus.duplicated;
  Fault_report.set_gauge report "net-retried" s.Bus.retried;
  Fault_report.set_gauge report "net-aborts" (Shard_group.net_aborts g);
  Fault_report.set_gauge report "indoubt-max-us" (Shard_group.max_indoubt_residence g / 1000);
  Metrics.set_gauge "net.sent" (float_of_int s.Bus.sent);
  Metrics.set_gauge "net.dropped" (float_of_int (s.Bus.dropped_loss + s.Bus.dropped_partition));
  Metrics.set_gauge "net.retried" (float_of_int s.Bus.retried);
  for sid = 0 to Shard_group.shard_count g - 1 do
    Fault_report.set_gauge report
      (Printf.sprintf "indoubt-s%d" sid)
      (Shard_group.indoubt_count g ~sid);
    Fault_report.set_gauge report
      (Printf.sprintf "epoch-lag-s%d" sid)
      (Shard_group.epoch_lag g ~sid);
    Metrics.set_gauge
      (Printf.sprintf "shard.indoubt.s%d" sid)
      (float_of_int (Shard_group.indoubt_count g ~sid));
    Metrics.set_gauge
      (Printf.sprintf "shard.epoch_lag.s%d" sid)
      (float_of_int (Shard_group.epoch_lag g ~sid))
  done

(* ------------------------------------------------------------------ *)
(* Replication plumbing. *)

let rep_total f r ~shards =
  let acc = ref 0 in
  for sid = 0 to shards - 1 do
    acc := !acc + f r ~sid
  done;
  !acc

let rep_digest_of r ~replicas ~shards ~restarts =
  let lag_max = List.fold_left (fun m (_, l) -> max m l) 0 (Replica.lags r) in
  {
    rd_replicas = replicas;
    rd_quorum = Replica.quorum r;
    rd_kills = Replica.kills r;
    rd_revives = Replica.revives r;
    rd_promotions = rep_total Replica.promotions r ~shards;
    rd_fencings = rep_total Replica.fencings r ~shards;
    rd_stale_acks = Replica.stale_ack_count r;
    rd_restarts = restarts;
    rd_lag_max_us = lag_max / 1000;
  }

(* Satellite: restart and promotion/fencing visibility is uniform across
   modes — the same gauge names feed the Sim-vs-Domains differential. *)
let record_rep_gauges report r ~shards ~restarts =
  Fault_report.set_gauge report "rep-kills" (Replica.kills r);
  Fault_report.set_gauge report "rep-revives" (Replica.revives r);
  Fault_report.set_gauge report "recovery-restarts" restarts;
  Fault_report.set_gauge report "rep-stale-acks" (Replica.stale_ack_count r);
  for sid = 0 to shards - 1 do
    Fault_report.set_gauge report
      (Printf.sprintf "promotions-s%d" sid)
      (Replica.promotions r ~sid);
    Fault_report.set_gauge report
      (Printf.sprintf "fencings-s%d" sid)
      (Replica.fencings r ~sid);
    Metrics.set_gauge
      (Printf.sprintf "replica.promotions.s%d" sid)
      (float_of_int (Replica.promotions r ~sid));
    Metrics.set_gauge
      (Printf.sprintf "replica.fencings.s%d" sid)
      (float_of_int (Replica.fencings r ~sid))
  done

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
      Replica.create ?quorum:cfg.rep_quorum ~lease:cfg.rep_lease ~replicas:cfg.replicas
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
let failover_beat (cfg : cfg) r ~node_rng ~dead_since ~note ~now =
  (match cfg.node_faults with
  | None -> ()
  | Some plan ->
      List.iter
        (fun a ->
          match a with
          | Fault_plan.Node_kill ->
              let sid = Rng.int node_rng cfg.shards in
              let node = Rng.int node_rng (cfg.replicas + 1) in
              if Replica.kill r ~sid ~node ~now then note "node-kill"
          | Fault_plan.Node_revive -> (
              match Replica.dead_nodes r with
              | (sid, node) :: _ ->
                  if Replica.revive r ~sid ~node ~now then note "node-revive"
              | [] -> ())
          | _ -> ())
        (Fault_plan.poll plan ~now));
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
          if now - since >= cfg.revive_after && Replica.revive r ~sid ~node ~now
          then begin
            Hashtbl.remove dead_since (sid, node);
            note "node-revive"
          end)
    dead;
  Replica.sweep r ~now;
  Replica.check_no_split_brain r @ Replica.check_failover_lag r ~bound:cfg.rep_lag_bound ~now

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
  if cfg.shards < 1 then invalid_arg "Shard_runner.run: need at least one shard";
  if cfg.replicas < 0 then invalid_arg "Shard_runner.run: negative replica count";
  (* Whole-node kills and power-loss crashes do not compose: [Wal.crash]
     truncates to the flushed prefix non-deterministically relative to
     what backups already mirrored, leaving LSN gaps the contiguous
     [Wal.receive] protocol is designed to refuse. *)
  if cfg.replicas > 0 && (cfg.crash_points <> [] || cfg.crash_steps <> [] || cfg.torn_tail)
  then invalid_arg "Shard_runner.run: crash faults are incompatible with replication";
  if
    cfg.replicas = 0
    && (cfg.kill_steps <> [] || cfg.node_faults <> None || cfg.rep_quorum <> None
       || match cfg.sabotage with Some (Sabotage.Failover _) -> true | _ -> false)
  then
    invalid_arg
      "Shard_runner.run: node faults, a quorum and failover sabotage require replicas > 0";
  Substrate.require ~who:"Shard_runner.run" mode
    [ (Substrate.Crash_faults, cfg.crash_points <> [] || cfg.crash_steps <> [] || cfg.torn_tail) ];
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
  let record_all ~at vs =
    List.iter
      (fun { Invariant.invariant; detail } -> Fault_report.record report ~at ~invariant ~detail)
      vs
  in
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
  let torn_rr = ref 0 in
  let do_crash_restart ~now =
    incr crashes;
    Fault_report.note_fault report "crash-restart";
    Vec.iter (fun drop -> drop now) drop_slots;
    Shard_group.crash_all g;
    if cfg.torn_tail then begin
      (* A fabricated tail frame on a rotating shard: a commit for a
         transaction the surviving prefix says is undecided. Honest
         recovery truncates it by CRC. *)
      let sid = !torn_rr mod cfg.shards in
      incr torn_rr;
      let wal = (Shard_group.shards g).(sid).Shard.wal in
      let exp = Wal_recovery.expect (Wal_recovery.analyze wal) in
      let tid, cts =
        match exp.Wal_recovery.losers with
        | tid :: _ -> (tid, exp.Wal_recovery.oracle_floor + 1)
        | [] ->
            (exp.Wal_recovery.oracle_floor + 999983, exp.Wal_recovery.oracle_floor + 999984)
      in
      let frame =
        Wal_record.encode_with_bad_crc
          {
            Wal_record.lsn = Wal.next_lsn wal;
            at = now;
            shard = Wal.shard wal;
            payload = Wal_record.Txn_commit { tid; cts };
          }
      in
      ignore (Wal.inject_raw wal frame);
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
                Scheduler.Sleep_until (!t + cfg.rep_lease + (2 * cfg.rep_sweep))
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
                      Scheduler.Sleep_until (t + cfg.rep_lease + (2 * cfg.rep_sweep))
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
  Substrate.spawn sub ~name:"epoch" ~at:cfg.epoch_period (fun now ->
      ignore (Shard_group.broadcast ~now g);
      if now >= horizon then Scheduler.Finished else Scheduler.Sleep_until (now + cfg.epoch_period));
  (* The net resolver: pump due frames, resend unacked decisions, run
     the in-doubt termination protocol. Spawned only for active fault
     configs, so the transparent fabric adds no scheduler process (and
     keeps dispatch-probe crash timing byte-identical). *)
  if active then
    Substrate.spawn sub ~name:"net" ~at:cfg.net_tick (fun now ->
        (try Shard_group.tick g ~now with Crash_now -> do_crash_restart ~now);
        if now >= horizon then Scheduler.Finished else Scheduler.Sleep_until (now + cfg.net_tick));
  (* The failover scheduler: node-fault plan polling, age-based revives,
     lease sweeps / promotions, and the online replication checks. *)
  (match repl with
  | None -> ()
  | Some r ->
      let node_rng = Rng.create (base.Exp_config.seed lxor 0x6b696c6c) in
      let dead_since = Hashtbl.create 8 in
      Substrate.spawn sub ~name:"failover" ~at:cfg.rep_sweep (fun now ->
          let vs =
            failover_beat cfg r ~node_rng ~dead_since
              ~note:(Fault_report.note_fault report)
              ~now
          in
          record_all ~at:now (viols_of_pairs vs);
          if now >= horizon then Scheduler.Finished
          else Scheduler.Sleep_until (now + cfg.rep_sweep)));
  (* Periodic invariant sweep: per-shard catalogue plus the static
     cross-shard 2PC checks (the latter catch a skipped decision with
     no crash at all). *)
  let spawn_invariants () =
    Substrate.spawn sub ~name:"invariants" ~at:cfg.check_period (fun now ->
        Fault_report.note_check report;
        Array.iter
          (fun (sh : Shard.t) -> record_all ~at:now (Invariant.check_all sh.Shard.driver))
          (Shard_group.shards g);
        (* Log analysis is linear in the logs; one pass feeds every
           log-level oracle of this sweep. *)
        let wals = Shard_group.wals g in
        let analyses = Invariant.analyze_shard_logs wals in
        record_all ~at:now (Invariant.check_cross_shard_atomicity ~analyses wals);
        (* The loss oracle runs continuously, not just at the end: an
           acked commit missing from the surviving logs is a violation
           at every sweep between the kill that lost it and the
           checkpoint frontier that archives it. *)
        (match repl with
        | None -> ()
        | Some r ->
            record_all ~at:now
              (Invariant.check_no_committed_loss ~analyses ~acked:(rep_acked g r) wals));
        if now >= horizon then Scheduler.Finished else Scheduler.Sleep_until (now + cfg.check_period))
  in
  (* Replicated runs register the sweep before the checkpointer: their
     periods share grid instants, and a sweep must observe each ordinary
     checkpoint's instant before the checkpointer archives the epoch —
     otherwise a loss from a promotion landing within one check period
     of the checkpoint could be aged out unseen. Unreplicated runs keep
     the historical registration order (dispatch order at shared
     instants is part of their byte-stable behavior). *)
  if cfg.check_period > 0 && repl <> None then spawn_invariants ();
  (* Fuzzy checkpoints, every shard in turn. *)
  if base.Exp_config.ckpt_period_s > 0. then begin
    let period = max 1 (Clock.seconds base.Exp_config.ckpt_period_s) in
    Substrate.spawn sub ~name:"checkpointer" ~at:period (fun now ->
        Array.iter
          (fun (sh : Shard.t) ->
            match sh.Shard.engine.Engine.checkpoint with
            | Some ckpt -> ckpt ~now
            | None -> ())
          (Shard_group.shards g);
        if now >= horizon then Scheduler.Finished else Scheduler.Sleep_until (now + period))
  end;
  (* Sampler: peak space over the group. *)
  let sample_period = max 1 (Clock.seconds base.Exp_config.sample_period_s) in
  Substrate.spawn sub ~name:"sampler" ~at:sample_period (fun now ->
      let s = Shard_group.sample g in
      if s.Engine.version_bytes > !peak_space then peak_space := s.Engine.version_bytes;
      if now >= horizon then Scheduler.Finished else Scheduler.Sleep_until (now + sample_period));
  if cfg.check_period > 0 && repl = None then spawn_invariants ();
  (* Crash points in global log position: power loss the first time the
     summed LSN reaches each point, checked at every dispatch. *)
  if Substrate.supports mode Substrate.Crash_faults then begin
    let crash_points = ref cfg.crash_points in
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
  record_all ~at:horizon
    (Invariant.check_cross_shard_atomicity ~analyses:final_analyses final_wals);
  if active then begin
    record_all ~at:endt (viols_of_pairs (Shard_group.check_indoubt_liveness g ~now:endt));
    record_all ~at:endt (viols_of_pairs (Shard_group.check_epoch_lag g ~now:endt));
    if faulty then record_net_gauges report g
  end;
  (* Replication verdicts: split-brain and lag over the final node
     state, and the loss oracle over the authoritative (post-failover)
     devices against the full client-visible ack ledger. *)
  let rep_restarts r =
    List.length !recoveries + rep_total Replica.promotions r ~shards:cfg.shards
  in
  (match repl with
  | None -> ()
  | Some r ->
      record_all ~at:endt (viols_of_pairs (Replica.check_no_split_brain r));
      record_all ~at:endt
        (viols_of_pairs (Replica.check_failover_lag r ~bound:cfg.rep_lag_bound ~now:endt));
      record_all ~at:endt
        (Invariant.check_no_committed_loss ~analyses:final_analyses
           ~acked:(rep_acked g r) final_wals);
      record_rep_gauges report r ~shards:cfg.shards ~restarts:(rep_restarts r));
  let final = Shard_group.sample g in
  if final.Engine.version_bytes > !peak_space then peak_space := final.Engine.version_bytes;
  Fault_report.set_gauge report "commits" !commits;
  Fault_report.set_gauge report "cross-commits" (Shard_group.cross_commits g);
  Fault_report.set_gauge report "single-commits" (Shard_group.single_commits g);
  Fault_report.set_gauge report "2pc-steps" (Shard_group.two_pc_steps g);
  Fault_report.set_gauge report "epochs" (Epoch.epoch (Shard_group.epoch g));
  if !crashes > 0 then Fault_report.set_gauge report "crash-restarts" !crashes;
  let tput = float_of_int !commits /. Float.max 1e-9 base.Exp_config.duration_s in
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
    digest =
      make_digest
        ~mode:(match mode with Sim -> "sim" | Domains _ -> "domains")
        ~shards:cfg.shards ~commits:!commits ~conflicts:!conflicts
        ~cross:(Shard_group.cross_commits g)
        ~violations:(Fault_report.violation_count report)
        ~peak:!peak_space ~tput
        ~net:(if faulty then Some (net_digest_of g) else None)
        ~rep:
          (match repl with
          | None -> None
          | Some r ->
              Some
                (rep_digest_of r ~replicas:cfg.replicas ~shards:cfg.shards
                   ~restarts:(rep_restarts r)));
  }
