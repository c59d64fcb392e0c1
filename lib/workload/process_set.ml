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

type shard_cfg = {
  base : Exp_config.t;
  shards : int;
  scenario : Shard_router.scenario;
  cross_pct : int;
  faults : Fault_plan.t;
  crash_steps : int list;
  net : Net_fault.config;
  replicas : int;
  rep_quorum : int option;
  kill_steps : int list;
  sabotage : Sabotage.t option;
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

(* The plan arrivals each topology implements; a plan injecting any
   other kind is refused, not ignored. Whole-node faults need replicated
   shards; everything else acts on one engine's internals. *)
let implements ~sharded = function
  | Fault_plan.Node_kill | Fault_plan.Node_revive -> sharded
  | _ -> not sharded

let refuse_unimplemented ~who ~sharded plan =
  match List.filter (fun a -> not (implements ~sharded a)) (Fault_plan.actions plan) with
  | [] -> ()
  | missing ->
      invalid_arg
        (Printf.sprintf "%s: the plan injects %s, which the %s runner does not implement" who
           (String.concat "/" (List.map Fault_plan.action_name missing))
           (if sharded then "sharded" else "unsharded"))

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

type single = { eng : Engine.t; wd : Watchdog.t option }
type group = { g : Shard_group.t; repl : Replica.t option; gcfg : shard_cfg }
type topology = Single of single | Group of group

type stats = {
  report : Fault_report.t;
  commit_rate : Series.Rate.rate;
  latency_us : Histogram.t;
  conflicts : int;
  llt_reads : int;
  retries : int;
  give_ups : int;
  crashes : int;
  recoveries : Engine.restart_info list;
  space : Series.t;
  redo : Series.t;
  chain : Series.t;
  splits : Series.t;
  final : Engine.sample;
  lag : Invariant.lag_monitor option;
}

let peak_of xs = List.fold_left (fun acc (_, v) -> max acc (int_of_float v)) 0 xs

(* Raised by the 2PC step hook to die at an exact protocol point; caught
   by the owning worker (or the resolver), which then runs the
   whole-system restart. *)
exception Crash_now

(* A sharded worker's cross-shard commit failed fast: a participant was
   unreachable, or a replication quorum was missed. *)
exception Net_aborted of Clock.time

(* The topology's transaction interface. [settle] is the workers'
   commit; only a sharded one can fail fast ([Net_aborted]). *)
type ops = {
  begin_txn : now:Clock.time -> Txn.t * Clock.time;
  read : Txn.t -> rid:int -> now:Clock.time -> int * Clock.time;
  write : Txn.t -> rid:int -> payload:int -> now:Clock.time -> Engine.write_result;
  commit : Txn.t -> now:Clock.time -> Clock.time;
  settle : Txn.t -> now:Clock.time -> Clock.time;
  abort : Txn.t -> now:Clock.time -> Clock.time;
  maintenance : now:Clock.time -> Clock.time;
  sample : unit -> Engine.sample;
}

(* Where a transaction's records come from: a table-then-row pattern
   over one engine, or a router over the shards. *)
type rows = Rows of Access.t | Routed of Shard_router.t

let viols_of_pairs ps = List.map (fun (invariant, detail) -> { Invariant.invariant; detail }) ps

(* ------------------------------------------------------------------ *)
(* Replication plumbing. *)

(* Arm the replication layer when configured: attach the group's devices
   and install the kill-step hook. Steps are counted globally across
   shards, and a scheduled kill lands between a step's intent and its
   send — exactly the windows the acceptance campaigns probe. The hook
   only marks nodes dead (never raises); the group's end-of-call
   re-checks turn the death into refused votes and unacked commits. *)
let setup_replicas cfg g =
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
let failover_beat cfg r ~plan ~node_rng ~dead_since ~note ~now =
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
    (Fault_plan.poll plan ~now);
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
          if now - since >= revive_after && Replica.revive r ~sid ~node ~now then begin
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
(* The campaign body. *)

let body mode (cfg : Exp_config.t) ~faults topo =
  let sub = Substrate.create mode in
  let master_rng = Rng.create cfg.Exp_config.seed in
  let horizon = Clock.seconds cfg.Exp_config.duration_s in
  let commit_rate = Series.Rate.create ~bucket:1.0 () in
  let latency_us = Histogram.create ~bucket_width:10 () in
  let conflicts = ref 0 and llt_reads = ref 0 and retries = ref 0 and give_ups = ref 0 in
  let crashes = ref 0 and recoveries = ref [] in
  let report = Fault_report.create () in
  let record_all = Invariant.record report in
  let crash_faults = Substrate.supports mode Substrate.Crash_faults in
  let direct_lag = Substrate.supports mode Substrate.Direct_lag_monitor in
  (* Every slot, in spawn order (workers, then LLT drivers), so victim
     selection is deterministic. *)
  let slots : slot Vec.t = Vec.create () in
  let single = match topo with Single s -> Some s | Group _ -> None in
  let driver = Option.bind single (fun s -> s.eng.Engine.driver) in
  let wd = Option.bind single (fun s -> s.wd) in
  let liveness_armed = wd <> None in
  let lease =
    match wd with
    | None -> None
    | Some _ ->
        (* Short transactions finish within one scheduling step, so their
           lease only covers jitter; an LLT gets a tenth of the longest
           declared lifetime, so only a driver that truly stopped expires. *)
        let short_lease = max (Clock.ms 10) (Clock.seconds (cfg.Exp_config.duration_s /. 200.)) in
        let longest_s =
          List.fold_left
            (fun acc (l : Exp_config.llt_spec) -> Float.max acc l.duration_s)
            0. cfg.Exp_config.llts
        in
        let llt_lease = max (4 * short_lease) (Clock.seconds (longest_s /. 10.)) in
        Some (Lease.create ~config:{ Lease.short_lease; llt_lease } ())
  in
  (* The slot holding each in-flight transaction of a single engine, for
     the governor's snapshot-too-old policy and the watchdog's zombie
     shedding: victims are rolled back through the engine (undoing their
     writes) rather than behind its back. Sharded workers keep no such
     table. *)
  let tracked = single <> None in
  let shed_tbl : (Timestamp.t, slot) Hashtbl.t = Hashtbl.create 64 in
  (* The cleaning loop makes no progress until this instant — set by
     [Cleaner_stall]/[Collab_delay] injections, cleared by the
     watchdog's restart rung. 0 (never) outside stall campaigns. *)
  let cleaner_stall_until = ref 0 in
  let ops =
    match topo with
    | Single { eng; _ } ->
        let open Engine in
        {
          begin_txn = eng.begin_txn;
          read = eng.read;
          write = eng.write;
          commit = eng.commit;
          settle = eng.commit;
          abort = eng.abort;
          maintenance = eng.maintenance;
          sample = eng.sample;
        }
    | Group { g; _ } ->
        {
          begin_txn = Shard_group.begin_txn g;
          read = Shard_group.read g;
          write = Shard_group.write g;
          commit = Shard_group.commit g;
          settle =
            (fun txn ~now ->
              match Shard_group.commit_checked g txn ~now with
              | Shard_group.Committed t -> t
              | Shard_group.Net_abort t -> raise (Net_aborted t));
          abort = Shard_group.abort g;
          maintenance = Shard_group.maintenance g;
          sample = (fun () -> Shard_group.sample g);
        }
  in
  let drivers =
    match topo with
    | Single _ -> Option.to_list driver
    | Group { g; _ } ->
        Array.to_list (Array.map (fun (sh : Shard.t) -> sh.Shard.driver) (Shard_group.shards g))
  in
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
    let txn, t = ops.begin_txn ~now in
    s.txn <- Some txn;
    if tracked then Hashtbl.replace shed_tbl txn.Txn.tid s;
    (match lease with Some l -> Lease.grant l ~tid:txn.Txn.tid ~kind ~now | None -> ());
    Scheduler.Sleep_until t
  in
  let release s txn =
    s.txn <- None;
    if tracked then Hashtbl.remove shed_tbl txn.Txn.tid;
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
            ((if s.llt then "llt-" else "") ^ if abort then "killed" else "crash-lost")
            ~at:now
            [ ("tid", Trace.I txn.Txn.tid) ];
        if abort then ignore (ops.abort txn ~now);
        true
  in
  let kill = take ~abort:true in
  Option.iter
    (fun d ->
      d.State.shed_hook <-
        Some
          (fun ~tid ~now ->
            match Hashtbl.find_opt shed_tbl tid with Some s -> kill s now | None -> false))
    driver;
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
  (* One row source per phase, built once; workers look theirs up by
     time. A sharded run routes each phase's rows across the shards. *)
  let phases =
    List.map
      (fun { Exp_config.pattern; _ } ->
        ( pattern,
          match topo with
          | Single _ -> Rows (Access.create cfg.Exp_config.schema pattern)
          | Group { gcfg; _ } ->
              Routed
                (Shard_router.create ~row:pattern ~shards:gcfg.shards cfg.Exp_config.schema
                   gcfg.scenario) ))
      (if cfg.Exp_config.phases = [] then [ { Exp_config.at_s = 0.; pattern = Access.Uniform } ]
       else cfg.Exp_config.phases)
  in
  let rows_at now =
    match phases with
    | [ (_, rows) ] -> rows
    | _ -> List.assoc (Exp_config.pattern_at cfg (Clock.to_seconds now)) phases
  in
  let sample rows rng =
    match rows with Rows a -> Access.sample a rng | Routed r -> Shard_router.sample r rng
  in
  (* A drawn fraction of a sharded run's writing transactions is forced
     to touch a second shard — the 2PC traffic: the rest of the write
     set spreads over the other shards, round-robin from the first. *)
  let shards, cross_pct =
    match topo with Group { gcfg; _ } -> (gcfg.shards, gcfg.cross_pct) | Single _ -> (1, 0)
  in
  let write_rid rows rng ~cross ~first w =
    match rows with
    | Rows a -> Access.sample a rng
    | Routed r ->
        if w = 0 then begin
          let rid = Shard_router.sample r rng in
          first := rid mod shards;
          rid
        end
        else Shard_router.sample_on r rng ~sid:(if cross then (!first + w) mod shards else !first)
  in
  let torn_tail = match faults with Some plan -> Fault_plan.torn_tail plan | None -> false in
  let torn_rr = ref 0 in
  let sweep = ref None in
  let new_acks =
    match topo with
    | Group { g; repl = Some r; _ } ->
        let seen = ref 0 and stale_seen = ref 0 in
        fun () ->
          let fresh = Shard_group.acked_from g !seen in
          let stale = List.filteri (fun i _ -> i >= !stale_seen) (Replica.stale_acked r) in
          seen := !seen + List.length fresh;
          stale_seen := !stale_seen + List.length stale;
          Some (fresh @ stale)
    | _ -> fun () -> None
  in
  let check_cursors ~at ?analyses ?reference wals =
    match !sweep with
    | Some s ->
        record_all ~at
          (Invariant.check_analysis_cursors s ?analyses ?reference ?acked:(new_acks ()) wals)
    | None -> ()
  in
  (* Power loss + ARIES-lite restart. A single engine loses its device
     past [keep]; a group loses every shard's unflushed frames. With
     [torn_tail] a fabricated commit frame with a stale checksum is
     appended (on a rotating shard) — honest recovery truncates it; a
     recovery running with [recovery_skip_tail_check] replays it and is
     caught by the post-recovery invariants. *)
  let do_crash_restart ~keep ~now =
    (match topo with Group { g; _ } -> check_cursors ~at:now (Shard_group.wals g) | Single _ -> ());
    incr crashes;
    Fault_report.note_fault report "crash-restart";
    if tracked && Trace.on () then
      Trace.instant Trace.Fault "crash-restart" ~at:now [ ("keep_lsn", Trace.I keep) ];
    Vec.iter (fun s -> if tracked then ignore (take ~abort:false s now) else s.txn <- None) slots;
    let torn wal =
      if torn_tail then begin
        Wal_recovery.inject_torn_commit wal ~at:now;
        Fault_report.note_fault report "torn-tail"
      end
    in
    match topo with
    | Single { eng; _ } ->
        let wal = Option.get (Option.bind driver (fun d -> d.State.wal)) in
        Wal.crash wal ~keep_lsn:keep;
        torn wal;
        let info = (Option.get eng.Engine.restart) ~now in
        recoveries := info :: !recoveries;
        Option.iter (fun d -> record_all ~at:now (Invariant.check_post_recovery d)) driver;
        if Trace.on () then
          Trace.instant Trace.Fault "recovered" ~at:now
            [
              ("replayed", Trace.I info.Engine.replayed_records);
              ("truncated", Trace.I info.Engine.truncated_frames);
              ("losers", Trace.I info.Engine.losers_rolled_back);
            ]
    | Group { g; _ } ->
        Shard_group.crash_all g;
        let sid = !torn_rr mod shards in
        if torn_tail then incr torn_rr;
        torn (Shard_group.shards g).(sid).Shard.wal;
        recoveries := List.rev_append (Shard_group.restart_all g ~now) !recoveries;
        List.iter (fun d -> record_all ~at:now (Invariant.check_post_recovery d)) drivers;
        record_all ~at:now
          (Invariant.check_cross_shard_atomicity
             ~clog:(Txn_manager.commit_log (Shard_group.mgr g))
             (Shard_group.wals g))
  in
  (* Crash-at-every-2PC-step: the hook fires after each durable protocol
     action; reaching a scheduled step raises out of the commit in
     progress, leaving the system exactly as the step left it. *)
  (match topo with
  | Group { g; gcfg; _ } ->
      let crash_steps = ref gcfg.crash_steps in
      Shard_group.set_on_step g
        (Some
           (fun n _ ->
             match !crash_steps with
             | p :: rest when n >= p ->
                 crash_steps := rest;
                 raise Crash_now
             | _ -> ()))
  | Single _ -> ());
  (* Prune audits on every driver: an unsound discard surfaces at once. *)
  if faults <> None then
    List.iter
      (fun d ->
        Invariant.install_prune_audit d ~on_violation:(fun ~now v -> record_all ~at:now [ v ]))
      drivers;
  (* OLTP workers: each short transaction takes two scheduling steps —
     begin first, then the operation body — so that transactions from
     different workers genuinely overlap in simulated time (write-write
     conflicts depend on that overlap). *)
  let failover_pause = rep_lease + (2 * rep_sweep) in
  let net_pause = match topo with Group { g; _ } -> Shard_group.net_indoubt_after g | _ -> 0 in
  let spawn_worker i =
    let rng = Rng.split master_rng in
    let s = new_slot ~llt:false (0x42e7 lxor (i * 0x9e3779b9)) in
    let first = ref 0 in
    Substrate.spawn sub ~name:(Printf.sprintf "worker-%d" i) ~at:0 (fun now ->
        match s.txn with
        | None -> (
            match if s.killed then retry s now else None with
            | Some step -> step
            | None ->
                if now >= horizon then Scheduler.Finished else begin_in s ~kind:Lease.Short now)
        | Some txn -> (
            (* The whole body runs in this one step, so its lease ends. *)
            release s txn;
            let rows = rows_at now in
            let t = ref now in
            let cross =
              shards > 1 && cfg.Exp_config.writes_per_txn > 1 && Rng.int rng 100 < cross_pct
            in
            try
              for _ = 1 to cfg.Exp_config.reads_per_txn do
                let _, t' = ops.read txn ~rid:(sample rows rng) ~now:!t in
                t := t'
              done;
              for w = 0 to cfg.Exp_config.writes_per_txn - 1 do
                let rid = write_rid rows rng ~cross ~first w in
                match ops.write txn ~rid ~payload:(Rng.int rng 1_000_000) ~now:!t with
                | Engine.Committed_path t' -> t := t'
                | Engine.Conflict t' ->
                    t := t';
                    raise Exit
              done;
              t := ops.settle txn ~now:!t;
              Series.Rate.incr commit_rate ~time:(Clock.to_seconds !t);
              if tracked then begin
                Backoff.reset s.backoff;
                Histogram.add latency_us ((!t - txn.Txn.begin_time) / 1_000)
              end;
              if Trace.on () then
                Trace.span Trace.Txn "txn" ~start:txn.Txn.begin_time
                  ~dur:(!t - txn.Txn.begin_time)
                  [ ("tid", Trace.I txn.Txn.tid); ("worker", Trace.I i) ];
              Scheduler.Sleep_until !t
            with
            | Exit ->
                incr conflicts;
                Metrics.bump "runner.conflicts";
                t := ops.abort txn ~now:!t;
                if Trace.on () then
                  Trace.span Trace.Txn "txn-conflict" ~start:txn.Txn.begin_time
                    ~dur:(!t - txn.Txn.begin_time)
                    [ ("tid", Trace.I txn.Txn.tid); ("worker", Trace.I i) ];
                Scheduler.Sleep_until !t
            (* Sharded only. A cross-shard fail-fast backs off hard: the
               degradation contract is pressure, not a wedged pipeline. A
               primaryless shard's refusal backs off past one lease expiry
               and failover sweep, so a successor is promoted first. A
               2PC step crash kills the system mid-commit, our transaction
               with it; recovery decides every orphaned prepare. *)
            | Net_aborted t' -> Scheduler.Sleep_until (t' + net_pause)
            | Shard_group.Shard_down _ ->
                Scheduler.Sleep_until (ops.abort txn ~now:!t + failover_pause)
            | Crash_now ->
                do_crash_restart ~keep:0 ~now:!t;
                Scheduler.Sleep_until (!t + Clock.us 100)))
  in
  for i = 0 to cfg.Exp_config.workers - 1 do
    spawn_worker i
  done;
  (* LLT drivers: begin at [start_s], read records continuously (a
     single engine's uniformly, a group's through its first phase's
     router), commit at the end of their lifetime. *)
  List.iteri
    (fun gi { Exp_config.start_s; duration_s; count } ->
      for li = 0 to count - 1 do
        let rng = Rng.split master_rng in
        let rows =
          match topo with
          | Single _ -> Rows (Access.create cfg.Exp_config.schema Access.Uniform)
          | Group _ -> snd (List.hd phases)
        in
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
            | Some txn -> (
                if s.zombie then
                  (* Hung driver: keeps its snapshot pinned but never
                     issues another operation or the commit. Only the
                     watchdog's shed rung (through the kill switch) or
                     the end of the run gets it off the live table. *)
                  if now >= horizon then Scheduler.Finished
                  else Scheduler.Sleep_until (now + Clock.ms 1)
                else if now >= llt_end || now >= horizon then begin
                  release s txn;
                  let _ = ops.commit txn ~now in
                  if Trace.on () then
                    Trace.span Trace.Txn "llt" ~start:txn.Txn.begin_time
                      ~dur:(now - txn.Txn.begin_time)
                      [ ("tid", Trace.I txn.Txn.tid); ("group", Trace.I gi) ];
                  Scheduler.Finished
                end
                else
                  match ops.read txn ~rid:(sample rows rng) ~now with
                  | _, t ->
                      incr llt_reads;
                      (match lease with
                      | Some l -> Lease.note_progress l ~tid:txn.Txn.tid ~now:t
                      | None -> ());
                      Scheduler.Sleep_until t
                  | exception Shard_group.Shard_down _ ->
                      (* Its shard died or fenced this snapshot: restart
                         fresh rather than pin it groupwide forever. *)
                      release s txn;
                      Scheduler.Sleep_until (ops.abort txn ~now + failover_pause)))
      done)
    cfg.Exp_config.llts;
  (* Background GC (vacuum / purge / vCutter; every shard in turn). Under
     an enabled governor the cadence follows the ladder: Pressured and
     above shorten the period so maintenance outpaces the pressure. *)
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
        let t = ops.maintenance ~now in
        let period =
          match driver with
          | Some d ->
              let scale = Governor.gc_scale (Driver.governor d) in
              max (Clock.us 500) (int_of_float (float_of_int cfg.Exp_config.gc_period *. scale))
          | None -> cfg.Exp_config.gc_period
        in
        Scheduler.Sleep_until (max t (now + period))
      end);
  (* The periodic invariant sweep: the catalogue on every driver, then a
     group's log oracles — cross-shard atomicity, the coordinator
     decision check and, replicated, the loss oracle — through one
     incremental cursor per shard. A single engine's sweep also runs the
     reclamation-lag monitor where the capability table says so. *)
  let lag_mon = ref None in
  let spawn_invariants plan =
    Substrate.every sub ~name:"invariants" ~period:(Fault_plan.check_period plan) ~until:horizon
      (fun now ->
        Fault_report.note_check report;
        List.iter (fun d -> record_all ~at:now (Invariant.check_all d)) drivers;
        match topo with
        | Single _ ->
            if direct_lag then
              Option.iter (fun m -> record_all ~at:now (Invariant.check_lag m ~now)) !lag_mon
        | Group { g; gcfg; _ } ->
            if Option.is_none !sweep then
              sweep :=
                Some
                  (Invariant.sweep (Array.init shards (fun _ -> Sabotage.cursor gcfg.sabotage ())));
            let s = Option.get !sweep in
            record_all ~at:now (Invariant.run_sweep s ?acked:(new_acks ()) (Shard_group.wals g)))
  in
  (match topo with
  | Single _ -> ()
  | Group { g; repl; gcfg } ->
      (* The epoch broadcaster: the only reader of the global live table
         for pruning. The net resolver pumps due frames, resends
         unacked decisions and runs in-doubt termination; only a
         non-transparent fabric (faults or replication) has one. *)
      Substrate.every sub ~name:"epoch" ~period:epoch_period ~until:horizon (fun now ->
          ignore (Shard_group.broadcast ~now g));
      if net_active gcfg || repl <> None then
        Substrate.every sub ~name:"net" ~period:net_tick ~until:horizon (fun now ->
            try Shard_group.tick g ~now with Crash_now -> do_crash_restart ~keep:0 ~now);
      (* The failover scheduler, then the sweep: a replicated run
         registers it before the checkpointer, so at a shared instant
         the sweep sees a loss before the checkpoint archives its epoch. *)
      Option.iter
        (fun r ->
          let plan = Fault_plan.cursor gcfg.faults in
          let node_rng = Rng.create (cfg.Exp_config.seed lxor 0x6b696c6c) in
          let dead_since = Hashtbl.create 8 in
          Substrate.every sub ~name:"failover" ~period:rep_sweep ~until:horizon (fun now ->
              record_all ~at:now
                (viols_of_pairs
                   (failover_beat gcfg r ~plan ~node_rng ~dead_since
                      ~note:(Fault_report.note_fault report) ~now)));
          spawn_invariants gcfg.faults)
        repl);
  (* Fuzzy checkpoints (every shard in turn): only durable engines have
     a checkpointer process. *)
  let checkpoint =
    match topo with
    | Single { eng; _ } -> eng.Engine.checkpoint
    | Group { g; _ } ->
        Some
          (fun ~now ->
            Array.iter
              (fun (sh : Shard.t) ->
                Option.iter (fun ckpt -> ckpt ~now) sh.Shard.engine.Engine.checkpoint)
              (Shard_group.shards g))
  in
  (match checkpoint with
  | Some ckpt when cfg.Exp_config.ckpt_period_s > 0. ->
      let period = max 1 (Clock.seconds cfg.Exp_config.ckpt_period_s) in
      Substrate.every sub ~name:"checkpointer" ~period ~until:horizon (fun now ->
          ckpt ~now;
          match wd with Some w -> Watchdog.beat w "checkpointer" ~now | None -> ())
  | _ -> ());
  (* Metrics sampler. *)
  let space = Series.create () and redo = Series.create () in
  let chain = Series.create () and splits = Series.create () in
  let sample_period = max 1 (Clock.seconds cfg.Exp_config.sample_period_s) in
  Substrate.every sub ~name:"sampler" ~period:sample_period ~until:horizon (fun now ->
      let s = ops.sample () in
      let time = Clock.to_seconds now in
      Series.add space ~time ~value:(float_of_int s.Engine.version_bytes);
      Series.add redo ~time ~value:(float_of_int s.Engine.redo_bytes);
      Series.add chain ~time ~value:(float_of_int s.Engine.max_chain);
      Series.add splits ~time ~value:(float_of_int s.Engine.splits));
  (* Fault harness: the sweep, and a dispatch probe that fires the crash
     points — power loss the first time the log's highest LSN (a group's
     summed LSN) reaches each, so deterministic in WAL position — and on
     a single engine polls the plan before every step. A sharded run
     without crash faults installs no probe. *)
  (match (topo, faults) with
  | Single _, None -> ()
  | Group { g; repl; _ }, Some plan ->
      if repl = None then spawn_invariants plan;
      if crash_faults then begin
        let crash_points = ref (Fault_plan.crash_points plan) in
        Substrate.on_dispatch sub (fun ~name:_ ~now ->
            match !crash_points with
            | p :: rest when Shard_group.total_lsn g >= p ->
                crash_points := rest;
                do_crash_restart ~keep:0 ~now
            | _ -> ())
      end
  | Group _, None -> assert false
  | Single { eng; _ }, Some plan ->
      Option.iter
        (fun d ->
          if direct_lag then
            lag_mon :=
              Some
                (Invariant.lag_monitor d
                   ~bound:
                     (Watchdog.lag_bound Watchdog.default_config
                        ~gc_period:cfg.Exp_config.gc_period));
          spawn_invariants plan)
        driver;
      (* Victims are drawn from the plan's seed, never [master_rng]: a
         plan that injects nothing leaves the workload stream untouched.
         A fault is offered to the slots from [from] on, round-robin from
         a drawn one, until one takes it. *)
      let victim_rng = Rng.create (Fault_plan.seed plan lxor 0x7fabc0de) in
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
      let durable () =
        match Option.bind driver (fun d -> d.State.wal) with
        | Some wal as w when Wal.is_durable wal && eng.Engine.restart <> None -> w
        | _ -> None
      in
      let stall dur = if liveness_armed then cleaner_stall_until := max !cleaner_stall_until dur in
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
            match durable () with
            (* A durable engine loses its unfsynced frames and replays;
               otherwise (§3.5) every in-flight transaction is a loser,
               rolled back through the engine before crash recovery and
               the Figure 10b post-conditions. *)
            | Some wal -> do_crash_restart ~keep:(Wal.flushed_lsn wal) ~now
            | None ->
                Vec.iter (fun s -> ignore (kill s now)) slots;
                ignore (eng.Engine.crash ());
                Option.iter (fun d -> record_all ~at:now (Invariant.check_post_crash d)) driver)
        | Fault_plan.Wal_error ->
            (* the device rejects syncs too (never consulted without fsync) *)
            Failpoint.arm_fail_n "wal.append" 16;
            Failpoint.arm_fail_n "wal.fsync" 4
        | Fault_plan.Flush_fail -> Failpoint.arm_fail_n "vsorter.flush" 4
        | Fault_plan.Evict_storm ->
            Option.iter (fun d -> Buffer_pool.clear d.State.store_cache) driver
        | Fault_plan.Space_storm ->
            (* A burst writer displaces a volley of versions at once,
               squeezing the version-space quota (victim-stream draws). *)
            let records = Schema.records cfg.Exp_config.schema in
            let txn, _ = ops.begin_txn ~now in
            let conflicted = ref false in
            (try
               for _ = 1 to 48 do
                 let rid = Rng.int victim_rng records in
                 match ops.write txn ~rid ~payload:(Rng.int victim_rng 1_000_000) ~now with
                 | Engine.Committed_path _ -> ()
                 | Engine.Conflict _ -> raise Exit
               done
             with Exit -> conflicted := true);
            if !conflicted then ignore (ops.abort txn ~now) else ignore (ops.commit txn ~now)
        (* Liveness injections bite only in armed runs. A cleaner stall
           outlasts the reclamation-lag bound; a collab delay (the cutter
           dawdling mid-episode) is a brief maintenance hiccup here.
           Zombies come from the LLT slots, after the workers'. *)
        | Fault_plan.Cleaner_stall ->
            if liveness_armed then stall (now + Clock.ms (150 + Rng.int victim_rng 451))
        | Fault_plan.Collab_delay ->
            if liveness_armed then stall (now + Clock.ms (2 + Rng.int victim_rng 19))
        | Fault_plan.Llt_zombie ->
            if liveness_armed then pick ~from:cfg.Exp_config.workers zombify now
        | Fault_plan.Node_kill | Fault_plan.Node_revive -> (* refused up front *) ()
      in
      let crash_points = ref (Fault_plan.crash_points plan) in
      let plan = Fault_plan.cursor plan in
      Substrate.on_dispatch sub (fun ~name:_ ~now ->
          (match !crash_points with
          | p :: rest -> (
              match durable () with
              | Some wal when Wal.max_lsn wal >= p ->
                  crash_points := rest;
                  do_crash_restart ~keep:(min p (Wal.max_lsn wal)) ~now
              | _ -> ())
          | [] -> ());
          List.iter (fun action -> apply action ~now) (Fault_plan.poll plan ~now)));
  (* Liveness watchdog: heartbeats over the cleaning pipeline, the
     escalation ladder and the reclamation-lag monitor, spawned after
     the probe so it is armed when the first poll fires. *)
  (match (wd, single) with
  | Some w, Some { eng; _ } ->
      Watchdog.register w "cleaner" ~now:0;
      Option.iter
        (fun d ->
          List.iter
            (fun source -> Watchdog.register w source ~now:0)
            [ "vsorter"; "vcutter"; "governor" ];
          d.State.watchdog <- Some w;
          lag_mon :=
            Some
              (Invariant.lag_monitor d
                 ~bound:
                   (Watchdog.lag_bound (Watchdog.config w) ~gc_period:cfg.Exp_config.gc_period)))
        driver;
      if checkpoint <> None && cfg.Exp_config.ckpt_period_s > 0. then
        Watchdog.register ~watch:false w "checkpointer" ~now:0;
      (* A zombie is past its lease, idle, and pins otherwise-dead
         versions; only those are shed (the no-false-kill audit). *)
      let expired_zombies ~now =
        match (lease, driver) with
        | Some l, Some d ->
            List.filter
              (fun tid -> Hashtbl.mem shed_tbl tid && Driver.pins_dead_interval d ~tid)
              (Lease.expired l ~now)
        | _ -> []
      in
      let actions =
        {
          Watchdog.nudge = (fun ~now -> ignore (ops.maintenance ~now));
          restart_cleaners = (fun ~now -> cleaner_stall_until := now);
          sync_reclaim =
            (fun ~now ->
              match driver with
              | Some d ->
                  ignore (Driver.flush_all d ~now);
                  ignore (Driver.maintain d ~now)
              | None -> ignore (eng.Engine.maintenance ~now));
          shed_zombies =
            (fun ~max:batch ~now ->
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
              cancel 0 (expired_zombies ~now));
          zombie_count = (fun ~now -> List.length (expired_zombies ~now));
        }
      in
      Substrate.every sub ~name:"watchdog" ~period:(Watchdog.config w).Watchdog.check_period
        ~until:horizon (fun now ->
          Option.iter (fun m -> record_all ~at:now (Invariant.check_lag m ~now)) !lag_mon;
          Option.iter (fun l -> record_all ~at:now (Invariant.check_no_false_kill l)) lease;
          Option.iter (fun d -> record_all ~at:now (Invariant.check_watchdog d)) driver;
          Watchdog.poll w ~now ~actions)
  | _ -> ());
  (* Under an unsound rule the engine can fail outright (a snapshot read
     landing on a pruned version); in a fault run that is a verdict. *)
  let engine_failed =
    try
      ignore (Substrate.run sub ~until:horizon);
      false
    with exn when faults <> None ->
      Fault_report.record report ~at:(Substrate.now sub) ~invariant:"engine-failure"
        ~detail:(Printexc.to_string exn);
      true
  in
  (match topo with
  | Single { eng; _ } ->
      if not engine_failed then eng.Engine.finish ~now:horizon;
      List.iter Invariant.remove_prune_audit drivers;
      Option.iter (fun m -> Invariant.finish_lag m ~now:horizon) !lag_mon;
      Option.iter
        (fun d ->
          d.State.shed_hook <- None;
          d.State.watchdog <- None)
        driver
  | Group { g; repl; gcfg } ->
      Shard_group.set_on_step g None;
      (* A non-transparent fabric drains in-flight frames and resolves
         what the horizon left in doubt (still-severed pairs excepted). *)
      let active = net_active gcfg || repl <> None in
      let endt =
        if active && not engine_failed then Shard_group.quiesce g ~now:horizon else horizon
      in
      if not engine_failed then Shard_group.finish g ~now:horizon;
      List.iter Invariant.remove_prune_audit drivers;
      (* End-of-run verdicts: the catalogue per shard and the log oracles
         over every surviving log, compared with the sweep's cursors;
         replicated, split brain, failover lag and the loss oracle over
         the post-failover devices against the client-visible ledger. *)
      List.iter (fun d -> record_all ~at:horizon (Invariant.check_all d)) drivers;
      let wals = Shard_group.wals g in
      let analyses = Invariant.analyze_shard_logs wals in
      let atomicity = Invariant.check_cross_shard_atomicity ~analyses wals in
      let lost =
        match repl with
        | None -> []
        | Some r -> Invariant.check_no_committed_loss ~analyses ~acked:(rep_acked g r) wals
      in
      check_cursors ~at:horizon ~analyses ~reference:(atomicity @ lost) wals;
      record_all ~at:horizon atomicity;
      if active then begin
        record_all ~at:endt (viols_of_pairs (Shard_group.check_indoubt_liveness g ~now:endt));
        record_all ~at:endt (viols_of_pairs (Shard_group.check_epoch_lag g ~now:endt))
      end;
      Option.iter
        (fun r ->
          record_all ~at:endt (viols_of_pairs (Replica.check_no_split_brain r));
          record_all ~at:endt
            (viols_of_pairs (Replica.check_failover_lag r ~bound:rep_lag_bound ~now:endt));
          record_all ~at:endt lost)
        repl);
  {
    report;
    commit_rate;
    latency_us;
    conflicts = !conflicts;
    llt_reads = !llt_reads;
    retries = !retries;
    give_ups = !give_ups;
    crashes = !crashes;
    recoveries = List.rev !recoveries;
    space;
    redo;
    chain;
    splits;
    final = ops.sample ();
    lag = !lag_mon;
  }

let single ~engine ~faults ~watchdog ~mode (cfg : Exp_config.t) =
  Substrate.require ~who:"Runner.run" mode
    [
      ( Substrate.Crash_faults,
        match faults with
        | Some plan -> Fault_plan.crash_points plan <> [] || Fault_plan.torn_tail plan
        | None -> false );
      (Substrate.Watchdog, watchdog <> None);
      (Substrate.Obs_export, Trace.on () || Metrics.in_scope () <> None);
    ];
  Option.iter (refuse_unimplemented ~who:"Runner.run" ~sharded:false) faults;
  Failpoint.with_scope @@ fun () ->
  let eng = engine cfg.Exp_config.schema in
  let wd = Option.map (fun config -> Watchdog.create ~config ()) watchdog in
  let stats = body mode cfg ~faults (Single { eng; wd }) in
  (eng, wd, stats)

let sharded ~mode cfg =
  let plan = cfg.faults in
  let crash_points = Fault_plan.crash_points plan in
  let crash_faults = crash_points <> [] || cfg.crash_steps <> [] || Fault_plan.torn_tail plan in
  let who = "Shard_runner.run" in
  if cfg.shards < 1 then invalid_arg (who ^ ": need at least one shard");
  if cfg.replicas < 0 then invalid_arg (who ^ ": negative replica count");
  refuse_unimplemented ~who ~sharded:true plan;
  (* Whole-node kills and power-loss crashes do not compose: [Wal.crash]
     truncates to the flushed prefix non-deterministically relative to
     what backups already mirrored, leaving LSN gaps the contiguous
     [Wal.receive] protocol is designed to refuse. *)
  if cfg.replicas > 0 && crash_faults then
    invalid_arg (who ^ ": crash faults are incompatible with replication");
  if
    cfg.replicas = 0
    && (cfg.kill_steps <> []
       || Fault_plan.actions plan <> []
       || cfg.rep_quorum <> None
       || match cfg.sabotage with Some (Sabotage.Failover _) -> true | _ -> false)
  then invalid_arg (who ^ ": node faults, a quorum and failover sabotage require replicas > 0");
  if cfg.sabotage = Some Sabotage.Stale_cursor && crash_points = [] && cfg.crash_steps = [] then
    invalid_arg (who ^ ": the stale-cursor sabotage needs crash points or crash steps");
  Substrate.require ~who mode [ (Substrate.Crash_faults, crash_faults) ];
  Failpoint.with_scope @@ fun () ->
  let g = Shard_group.create ~net:cfg.net ~shards:cfg.shards cfg.base.Exp_config.schema in
  Sabotage.arm_group cfg.sabotage g;
  let repl = setup_replicas cfg g in
  let stats = body mode cfg.base ~faults:(Some plan) (Group { g; repl; gcfg = cfg }) in
  (g, repl, stats)
