(* Sharded-deployment tests: keyspace routing, the stale-epoch
   soundness property (a broadcast dead-zone snapshot only ever
   under-prunes), the presumed-abort 2PC record choreography,
   crash-at-every-2PC-step recovery with the cross-shard atomicity
   oracle, in-doubt state across fuzzy checkpoints, the
   skip-coordinator-decision sabotage as a unit (caught with and
   without a crash; the campaign-level twin is a row of the sabotage
   registry, test_sabotage), shard-foreign frame refusal, and campaign-level
   reproducibility plus the Sim-vs-Domains digest. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_schema =
  { Schema.default with Schema.tables = 2; rows_per_table = 100; record_bytes = 64 }

let mk_group ?(shards = 2) () = Shard_group.create ~shards small_schema

let no_violations label vs =
  Alcotest.(check (list string))
    label []
    (List.map
       (fun { Invariant.invariant; detail } -> invariant ^ ": " ^ detail)
       vs)

(* -------------------------------------------------------------------- *)
(* Routing *)

let test_rid_mapping () =
  let g = mk_group ~shards:4 () in
  let records = Schema.records small_schema in
  let seen = Hashtbl.create records in
  for rid = 0 to records - 1 do
    let sid = Shard_group.shard_of g ~rid in
    let local = Shard_group.local_rid g ~rid in
    check_int "roundtrip" rid (Shard_group.global_rid g ~sid ~local);
    check_bool "shard in range" true (sid >= 0 && sid < 4);
    check_bool "local in range" true
      (local >= 0 && local < Shard_group.local_records ~shards:4 ~records ~sid);
    let key = (sid, local) in
    check_bool "injective" false (Hashtbl.mem seen key);
    Hashtbl.replace seen key ()
  done;
  check_int "total" records (Hashtbl.length seen)

let test_router_lands_on_shard () =
  let router =
    Shard_router.create ~shards:4 small_schema Shard_router.Uniform_shards
  in
  let rng = Rng.create 42 in
  for _ = 1 to 500 do
    let sid = Rng.int rng 4 in
    let rid = Shard_router.sample_on router rng ~sid in
    check_int "sample_on honors shard" sid (rid mod 4);
    check_bool "valid rid" true (rid < Schema.records small_schema)
  done

let test_router_hot_shard_skew () =
  let router =
    Shard_router.create ~shards:4 small_schema
      (Shard_router.Hot_shard { shard = 2; pct = 80 })
  in
  let rng = Rng.create 7 in
  let hits = Array.make 4 0 in
  let n = 4000 in
  for _ = 1 to n do
    let rid = Shard_router.sample router rng in
    hits.(rid mod 4) <- hits.(rid mod 4) + 1
  done;
  check_bool "hot shard dominates" true (hits.(2) > (2 * n) / 3);
  for s = 0 to 3 do
    check_bool "every shard sees traffic" true (hits.(s) > 0)
  done

(* -------------------------------------------------------------------- *)
(* Satellite: stale-epoch soundness. A zone snapshot broadcast at
   oracle time [c] can cover only intervals with [hi < c]; any later
   transaction begins at or after [c]; survivors are a subset of the
   snapshot's live set. So an interval the stale snapshot covers is
   still covered by (and dead against) every later live state. *)

let stale_epoch_case_gen =
  QCheck.Gen.(
    let* c = int_range 20 120 in
    let* l0 = list_size (int_range 0 12) (int_range 1 (c - 1)) in
    let l0 = List.sort_uniq compare l0 in
    (* survivors: a random subset of the broadcast-time live set *)
    let* keep = list_repeat (List.length l0) bool in
    let survivors = List.filteri (fun i _ -> List.nth keep i) l0 in
    let* gap = int_range 1 40 in
    let c' = c + gap in
    (* newcomers draw begin timestamps at or after the broadcast *)
    let* news = list_size (int_range 0 8) (int_range c (c' - 1)) in
    let live' = List.sort_uniq compare (survivors @ news) in
    let* lo = int_range 0 (c - 1) in
    let* hi = int_range lo (c - 1) in
    QCheck.Gen.return (c, l0, live', c', lo, hi))

let prop_stale_epoch_under_prunes =
  QCheck.Test.make ~name:"stale epoch broadcast never kills a reachable version"
    ~count:2000 (QCheck.make stale_epoch_case_gen)
    (fun (c, l0, live', c', lo, hi) ->
      let stale = Zone_set.make ~live:l0 ~now_ts:c in
      if not (Zone_set.covers stale ~lo ~hi) then true
      else begin
        (* Dead per Definition 3.3 against the *later* global state. *)
        let fresh = Zone_set.make ~live:live' ~now_ts:c' in
        Zone_set.covers fresh ~lo ~hi
        && (lo >= hi || Prune.dead_spec ~live:live' ~vs:lo ~ve:hi)
      end)

(* -------------------------------------------------------------------- *)
(* 2PC record choreography *)

let kinds wal =
  List.filter_map
    (fun (_, frame) ->
      match Wal_record.decode frame with
      | Ok r -> Some (Wal_record.kind_name r.Wal_record.payload)
      | Error _ -> None)
    (Wal.frames wal)

let cross_commit g ~now =
  let txn, t = Shard_group.begin_txn g ~now in
  let t =
    match Shard_group.write g txn ~rid:0 ~payload:11 ~now:t with
    | Engine.Committed_path t -> t
    | Engine.Conflict _ -> Alcotest.fail "unexpected conflict"
  in
  let t =
    match Shard_group.write g txn ~rid:1 ~payload:22 ~now:t with
    | Engine.Committed_path t -> t
    | Engine.Conflict _ -> Alcotest.fail "unexpected conflict"
  in
  (txn, Shard_group.commit g txn ~now:t)

let test_2pc_happy_path_records () =
  let g = mk_group () in
  let txn, _ = cross_commit g ~now:(Clock.ms 1) in
  check_int "one cross commit" 1 (Shard_group.cross_commits g);
  check_int "eight micro-steps" 8 (Shard_group.two_pc_steps g);
  let coord_kinds = kinds (Shard_group.shards g).(0).Shard.wal in
  let part_kinds = kinds (Shard_group.shards g).(1).Shard.wal in
  let count k l = List.length (List.filter (( = ) k) l) in
  check_int "coordinator prepare" 1 (count "2pc-prepare" coord_kinds);
  check_int "coordinator decision" 1 (count "2pc-commit" coord_kinds);
  check_int "coordinator acks" 2 (count "2pc-ack" coord_kinds);
  check_int "coordinator forget" 1 (count "2pc-forget" coord_kinds);
  check_int "coordinator local outcome" 1 (count "txn-commit" coord_kinds);
  check_int "participant prepare" 1 (count "2pc-prepare" part_kinds);
  check_int "participant local outcome" 1 (count "txn-commit" part_kinds);
  check_int "participant holds no decision" 0 (count "2pc-commit" part_kinds);
  (* The decision precedes every participant apply in the coordinator's
     log order. *)
  let rec index k i = function
    | [] -> -1
    | x :: rest -> if x = k then i else index k (i + 1) rest
  in
  check_bool "decision before local apply" true
    (index "2pc-commit" 0 coord_kinds < index "txn-commit" 0 coord_kinds);
  no_violations "honest 2PC run"
    (Invariant.check_cross_shard_atomicity (Shard_group.wals g));
  ignore txn

let test_single_shard_commit_skips_2pc () =
  let g = mk_group () in
  let txn, t = Shard_group.begin_txn g ~now:(Clock.ms 1) in
  let t =
    match Shard_group.write g txn ~rid:0 ~payload:5 ~now:t with
    | Engine.Committed_path t -> t
    | Engine.Conflict _ -> Alcotest.fail "unexpected conflict"
  in
  ignore (Shard_group.commit g txn ~now:t);
  check_int "no 2pc steps" 0 (Shard_group.two_pc_steps g);
  check_int "single commit" 1 (Shard_group.single_commits g);
  check_int "no prepare frames" 0
    (List.length (List.filter (( = ) "2pc-prepare") (kinds (Shard_group.shards g).(0).Shard.wal)))

let test_cross_abort_presumed () =
  let g = mk_group () in
  let txn, t = Shard_group.begin_txn g ~now:(Clock.ms 1) in
  let t =
    match Shard_group.write g txn ~rid:0 ~payload:5 ~now:t with
    | Engine.Committed_path t -> t
    | Engine.Conflict _ -> Alcotest.fail "unexpected conflict"
  in
  let t =
    match Shard_group.write g txn ~rid:1 ~payload:6 ~now:t with
    | Engine.Committed_path t -> t
    | Engine.Conflict _ -> Alcotest.fail "unexpected conflict"
  in
  ignore (Shard_group.abort g txn ~now:t);
  let coord_kinds = kinds (Shard_group.shards g).(0).Shard.wal in
  check_bool "informational coord abort" true (List.mem "2pc-abort" coord_kinds);
  check_bool "no decision record" true (not (List.mem "2pc-commit" coord_kinds));
  no_violations "aborted cross txn is consistent"
    (Invariant.check_cross_shard_atomicity (Shard_group.wals g))

(* -------------------------------------------------------------------- *)
(* Crash at every 2PC step. With two participants the sequence has 8
   durable micro-steps: Prepared x2, Decided, (Applied, Acked) x2,
   Forgotten. Dying right after each must leave a state recovery
   resolves to the same outcome on every shard — commit iff the
   decision was durable (step >= 3). *)

exception Boom

let test_crash_at_step s () =
  let g = mk_group () in
  let tid = ref (-1) in
  Shard_group.set_on_step g
    (Some
       (fun n st ->
         (match st with
         | Shard_group.Prepared { tid = t; _ } -> tid := t
         | _ -> ());
         if n = s then raise Boom));
  (try
     ignore (cross_commit g ~now:(Clock.ms 1));
     Alcotest.failf "step %d never fired" s
   with Boom -> ());
  Shard_group.set_on_step g None;
  Shard_group.crash_all g;
  let infos = Shard_group.restart_all g ~now:(Clock.ms 2) in
  check_int "both shards restarted" 2 (List.length infos);
  Array.iter
    (fun (sh : Shard.t) ->
      no_violations
        (Printf.sprintf "post-recovery, shard %d, crash step %d" sh.Shard.sid s)
        (Invariant.check_post_recovery sh.Shard.driver))
    (Shard_group.shards g);
  no_violations
    (Printf.sprintf "cross-shard atomicity, crash step %d" s)
    (Invariant.check_cross_shard_atomicity
       ~clog:(Txn_manager.commit_log (Shard_group.mgr g))
       (Shard_group.wals g));
  (* The outcome is determined by decision durability alone. *)
  let coord_wal = (Shard_group.shards g).(0).Shard.wal in
  let exp = Wal_recovery.expect (Wal_recovery.analyze coord_wal) in
  let decided = exp.Wal_recovery.decisions <> [] in
  check_bool "decision durable iff past the commit point" (s >= 3) decided;
  (* Both shards' resolved outcomes agree with the decision. *)
  let resolve ~tid:t ~coord:_ = List.assoc_opt t exp.Wal_recovery.decisions in
  List.iter
    (fun (sid, wal) ->
      let e = Wal_recovery.expect ~resolve:(fun () -> resolve) (Wal_recovery.analyze wal) in
      check_bool
        (Printf.sprintf "shard %d outcome matches decision (step %d)" sid s)
        decided
        (List.mem_assoc !tid e.Wal_recovery.committed))
    (Shard_group.wals g)

let test_crash_at_every_step () =
  for s = 1 to 8 do
    test_crash_at_step s ()
  done

(* -------------------------------------------------------------------- *)
(* In-doubt state across fuzzy checkpoints *)

let checkpoint_all g ~now =
  Array.iter
    (fun (sh : Shard.t) ->
      match sh.Shard.engine.Engine.checkpoint with
      | Some ckpt -> ckpt ~now
      | None -> Alcotest.fail "shard not durable")
    (Shard_group.shards g)

(* Crash with prepares durable, a checkpoint taken while prepared, and
   no decision: recovery presumed-aborts on every shard. *)
let test_checkpoint_preserves_indoubt () =
  let g = mk_group () in
  Shard_group.set_on_step g
    (Some
       (fun n _ ->
         if n = 2 then begin
           (* Both participants prepared, nobody decided: checkpoint
              now, so the in-doubt window must survive through the
              snapshot, then die. *)
           checkpoint_all g ~now:(Clock.ms 5);
           raise Boom
         end));
  (try ignore (cross_commit g ~now:(Clock.ms 1)) with Boom -> ());
  Shard_group.set_on_step g None;
  Shard_group.crash_all g;
  ignore (Shard_group.restart_all g ~now:(Clock.ms 6));
  Array.iter
    (fun (sh : Shard.t) ->
      no_violations
        (Printf.sprintf "ckpt-indoubt post-recovery shard %d" sh.Shard.sid)
        (Invariant.check_post_recovery sh.Shard.driver))
    (Shard_group.shards g);
  no_violations "ckpt-indoubt atomicity"
    (Invariant.check_cross_shard_atomicity
       ~clog:(Txn_manager.commit_log (Shard_group.mgr g))
       (Shard_group.wals g))

(* Crash with the decision durable and a checkpoint taken after it:
   the decision must survive checkpointing (in the decisions window)
   and both in-doubt participants must resolve to commit. *)
let test_checkpoint_preserves_decision () =
  let g = mk_group () in
  Shard_group.set_on_step g
    (Some
       (fun n _ ->
         if n = 3 then begin
           checkpoint_all g ~now:(Clock.ms 5);
           raise Boom
         end));
  (try ignore (cross_commit g ~now:(Clock.ms 1)) with Boom -> ());
  Shard_group.set_on_step g None;
  Shard_group.crash_all g;
  ignore (Shard_group.restart_all g ~now:(Clock.ms 6));
  no_violations "ckpt-decision atomicity"
    (Invariant.check_cross_shard_atomicity
       ~clog:(Txn_manager.commit_log (Shard_group.mgr g))
       (Shard_group.wals g));
  let exp =
    Wal_recovery.expect (Wal_recovery.analyze (Shard_group.shards g).(0).Shard.wal)
  in
  check_bool "decision survived the checkpoint" true (exp.Wal_recovery.decisions <> [])

let test_checkpoint_indoubt_roundtrip () =
  let ck =
    {
      Checkpoint.at = Clock.ms 3;
      oracle_next = 17;
      live = [ 5 ];
      committed = [ (3, 4) ];
      aborted = [];
      rows = [];
      pending = [];
      segments = [];
      next_seg_id = 9;
      prepared = [ (5, 0); (6, 1) ];
      decisions = [ (7, 42) ];
    }
  in
  let out = Wire.out () in
  Checkpoint.write out ck;
  let bytes = Wire.contents out in
  let ck' = Checkpoint.scan { Wire.s = bytes; lim = String.length bytes; pos = 0 } in
  check_bool "prepared window" true (ck'.Checkpoint.prepared = ck.Checkpoint.prepared);
  check_bool "decision window" true (ck'.Checkpoint.decisions = ck.Checkpoint.decisions);
  match Ref_codec.checkpoint_of_bytes bytes with
  | Ok ck'' -> check_bool "the reference reads the same" true (ck'' = ck)
  | Error e -> Alcotest.failf "roundtrip: %s" e

(* -------------------------------------------------------------------- *)
(* Sabotage: the coordinator never forces its decision *)

let test_sabotage_caught_statically () =
  let g = mk_group () in
  Shard_group.set_skip_coord_decision g true;
  ignore (cross_commit g ~now:(Clock.ms 1));
  let vs = Invariant.check_cross_shard_atomicity (Shard_group.wals g) in
  check_bool "decision-missing violations" true
    (List.exists (fun v -> v.Invariant.invariant = "2pc-decision-missing") vs)

let test_sabotage_caught_after_crash () =
  let g = mk_group () in
  Shard_group.set_skip_coord_decision g true;
  (* Die after the first participant applied its commit: shard 0 holds
     a committed transaction, shard 1 presumed-aborts it. *)
  Shard_group.set_on_step g (Some (fun n _ -> if n = 4 then raise Boom));
  (try ignore (cross_commit g ~now:(Clock.ms 1)) with Boom -> ());
  Shard_group.set_on_step g None;
  Shard_group.crash_all g;
  ignore (Shard_group.restart_all g ~now:(Clock.ms 2));
  let vs =
    Invariant.check_cross_shard_atomicity
      ~clog:(Txn_manager.commit_log (Shard_group.mgr g))
      (Shard_group.wals g)
  in
  check_bool "atomicity violation caught" true
    (List.exists
       (fun v ->
         v.Invariant.invariant = "cross-shard-atomicity"
         || v.Invariant.invariant = "2pc-decision-missing")
       vs)

(* -------------------------------------------------------------------- *)
(* Shard logs are disjoint LSN namespaces *)

let test_foreign_frame_ends_prefix () =
  let g = mk_group () in
  ignore (cross_commit g ~now:(Clock.ms 1));
  let wal1 = (Shard_group.shards g).(1).Shard.wal in
  let before = (Wal_recovery.analyze wal1).Wal_recovery.survivors in
  (* A frame tagged for shard 0 — valid CRC, wrong namespace. *)
  let foreign =
    Wal_record.encode
      {
        Wal_record.lsn = Wal.next_lsn wal1;
        at = Clock.ms 2;
        shard = 0;
        payload = Wal_record.Txn_commit { tid = 999; cts = 1000 };
      }
  in
  ignore (Wal.inject_raw wal1 foreign);
  let a = Wal_recovery.analyze wal1 in
  check_int "foreign frame not trusted" before a.Wal_recovery.survivors;
  check_bool "tail dropped" true (a.Wal_recovery.dropped >= 1)

(* -------------------------------------------------------------------- *)
(* Campaign level *)

let campaign_cfg () =
  let base =
    {
      Exp_config.default with
      Exp_config.name = "shard-campaign";
      seed = 11;
      duration_s = 0.4;
      workers = 4;
      reads_per_txn = 2;
      writes_per_txn = 2;
      schema = small_schema;
      llts = [ { Exp_config.start_s = 0.05; duration_s = 0.2; count = 2 } ];
      gc_period = Clock.ms 5;
      sample_period_s = 0.05;
      ckpt_period_s = 0.1;
    }
  in
  {
    (Shard_runner.default ~shards:2 base) with
    Shard_runner.cross_pct = 50;
    faults = Fault_plan.create ~crash_points:[ 400 ] ~torn_tail:true ~check_period:(Clock.ms 20) ();
    crash_steps = [ 12; 40 ];
  }

let test_campaign_honest_and_reproducible () =
  let r1 = Shard_runner.run (campaign_cfg ()) in
  let r2 = Shard_runner.run (campaign_cfg ()) in
  check_int "campaign is honest" 0 (Fault_report.violation_count r1.Shard_runner.report);
  check_bool "crashes happened" true (r1.Shard_runner.crashes >= 2);
  check_bool "2pc traffic happened" true (r1.Shard_runner.cross_commits > 0);
  check_bool "byte-reproducible digest" true
    (r1.Shard_runner.digest = r2.Shard_runner.digest);
  check_int "same crashes" r1.Shard_runner.crashes r2.Shard_runner.crashes;
  check_int "same 2pc steps" r1.Shard_runner.two_pc_steps r2.Shard_runner.two_pc_steps

(* Sharded workers draw their rows from the phase in force: a skewed
   second phase must change the run, where a router built from the
   first phase alone would leave it equal to its one-phase twin. *)
let test_workers_follow_phases () =
  let cfg = campaign_cfg () in
  let run phases =
    let base = { cfg.Shard_runner.base with Exp_config.phases } in
    let r =
      Shard_runner.run { (Shard_runner.default ~shards:2 base) with Shard_runner.cross_pct = 50 }
    in
    check_int "honest" 0 (Fault_report.violation_count r.Shard_runner.report);
    Jsonx.to_string (Shard_runner.digest_to_json r.Shard_runner.digest)
  in
  let first = { Exp_config.at_s = 0.; pattern = Access.Uniform } in
  let phased = run [ first; { Exp_config.at_s = 0.1; pattern = Access.Zipfian 1.2 } ] in
  check_bool "the second phase moves the digest" true (phased <> run [ first ])

(* One Sim/Domains pair, shared by the agreement test and the
   lost-counter test. *)
let sim_domains_pair =
  lazy
    (let base =
       {
         Exp_config.default with
         Exp_config.name = "shard-digest";
         seed = 5;
         duration_s = 0.2;
         workers = 4;
         reads_per_txn = 2;
         writes_per_txn = 2;
         schema = small_schema;
         llts = [ { Exp_config.start_s = 0.02; duration_s = 0.1; count = 1 } ];
         gc_period = Clock.ms 5;
         sample_period_s = 0.05;
         ckpt_period_s = 0.;
       }
     in
     let cfg = { (Shard_runner.default ~shards:2 base) with Shard_runner.cross_pct = 50 } in
     ( Shard_runner.run ~mode:Shard_runner.Sim cfg,
       Shard_runner.run ~mode:(Shard_runner.Domains { domains = 2 }) cfg ))

let test_sim_vs_domains_digest () =
  let sim, dom = Lazy.force sim_domains_pair in
  check_int "sim honest" 0 sim.Shard_runner.digest.Shard_runner.d_violations;
  check_int "domains honest" 0 dom.Shard_runner.digest.Shard_runner.d_violations;
  (* Domains runs the Sim body's periodic sweep, not just the end-of-run
     verdicts. *)
  check_bool "domains swept periodically" true
    (Fault_report.checks_run dom.Shard_runner.report > 0);
  Alcotest.(check (list string))
    "digests agree" []
    (Shard_runner.digest_diff sim.Shard_runner.digest dom.Shard_runner.digest)

(* A Domains digest whose commits never reached the aggregate must not
   pass for its honest Sim twin. *)
let test_lost_commits_caught () =
  let sim, dom = Lazy.force sim_domains_pair in
  let lost = { dom.Shard_runner.digest with Shard_runner.d_commits = 0 } in
  check_bool "lost commits differ" true
    (Shard_runner.digest_diff sim.Shard_runner.digest lost <> [])

let suites =
  [
    ( "shard-routing",
      [
        Alcotest.test_case "rid mapping is a bijection" `Quick test_rid_mapping;
        Alcotest.test_case "sample_on lands on the shard" `Quick test_router_lands_on_shard;
        Alcotest.test_case "hot-shard scenario skews" `Quick test_router_hot_shard_skew;
      ] );
    ( "shard-epoch",
      [ QCheck_alcotest.to_alcotest prop_stale_epoch_under_prunes ] );
    ( "shard-2pc",
      [
        Alcotest.test_case "happy-path record choreography" `Quick test_2pc_happy_path_records;
        Alcotest.test_case "single-shard commit skips 2PC" `Quick
          test_single_shard_commit_skips_2pc;
        Alcotest.test_case "cross-shard abort is presumed" `Quick test_cross_abort_presumed;
        Alcotest.test_case "crash at every 2PC step" `Quick test_crash_at_every_step;
        Alcotest.test_case "checkpoint preserves in-doubt window" `Quick
          test_checkpoint_preserves_indoubt;
        Alcotest.test_case "checkpoint preserves decision window" `Quick
          test_checkpoint_preserves_decision;
        Alcotest.test_case "checkpoint in-doubt roundtrip" `Quick
          test_checkpoint_indoubt_roundtrip;
        Alcotest.test_case "skipped decision caught statically" `Quick
          test_sabotage_caught_statically;
        Alcotest.test_case "skipped decision caught after crash" `Quick
          test_sabotage_caught_after_crash;
        Alcotest.test_case "foreign-shard frame ends the prefix" `Quick
          test_foreign_frame_ends_prefix;
      ] );
    ( "shard-campaign",
      [
        Alcotest.test_case "honest campaign, byte-reproducible" `Slow
          test_campaign_honest_and_reproducible;
        Alcotest.test_case "sim-vs-domains digest" `Slow test_sim_vs_domains_digest;
        Alcotest.test_case "lost commits caught by digest" `Slow test_lost_commits_caught;
        Alcotest.test_case "workers follow the phases" `Quick test_workers_follow_phases;
      ] );
  ]
