(* Network-fault layer tests: bus fault-model semantics and seeded
   determinism, the transparent-passthrough byte-identity pin (digests
   with the net layer installed but no faults must equal the pre-layer
   bytes), per-channel backoff stream forking, partition-tolerant
   degradation of the sharded campaign, duplicate-delivery idempotence,
   cooperative in-doubt termination, both network sabotage modes
   (provably caught), and the qcheck property that duplicated 2PC
   frames in a WAL prefix change nothing about recovery's decision
   table or in-doubt set. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* -------------------------------------------------------------------- *)
(* Bus semantics *)

let collect_bus ?faults ~endpoints () =
  let bus = Bus.create ?faults ~endpoints () in
  let log = ref [] in
  for ep = 0 to endpoints - 1 do
    Bus.set_handler bus ~ep (fun ~now ~src msg -> log := (ep, now, src, msg) :: !log)
  done;
  (bus, fun () -> List.rev !log)

let test_passthrough_inline () =
  let bus, seen = collect_bus ~endpoints:3 () in
  Bus.send bus ~src:0 ~dst:1 ~now:5 "a";
  Bus.send bus ~src:1 ~dst:2 ~now:6 "b";
  Bus.send bus ~src:2 ~dst:2 ~now:7 "self";
  check_int "nothing queued" 0 (Bus.pending bus);
  check_bool "inline, in send order" true
    (seen () = [ (1, 5, 0, "a"); (2, 6, 1, "b"); (2, 7, 2, "self") ]);
  let s = Bus.stats bus in
  check_int "sent" 3 s.Bus.sent;
  check_int "delivered" 3 s.Bus.delivered;
  check_int "no loss draws" 0 (s.Bus.dropped_loss + s.Bus.duplicated)

let lossy_cfg ?(loss = 0.3) ?(dup = 0.2) ?(seed = 42) () =
  Net_fault.make ~loss ~dup ~max_delay:(Clock.us 50) ~seed ()

let run_lossy ~seed n =
  let bus, seen = collect_bus ~faults:(lossy_cfg ~seed ()) ~endpoints:2 () in
  for i = 0 to n - 1 do
    Bus.send bus ~src:0 ~dst:1 ~now:(i * 100) (string_of_int i)
  done;
  ignore (Bus.pump bus ~now:max_int);
  (Bus.stats bus, seen ())

let test_bus_determinism () =
  let s1, d1 = run_lossy ~seed:7 500 in
  let s2, d2 = run_lossy ~seed:7 500 in
  check_bool "same stats" true (s1 = s2);
  check_bool "same delivery sequence" true (d1 = d2);
  let _, d3 = run_lossy ~seed:8 500 in
  check_bool "different seed, different sequence" true (d1 <> d3)

let test_bus_loss_dup_accounting () =
  let s, delivered = run_lossy ~seed:42 1000 in
  check_int "all sends counted" 1000 s.Bus.sent;
  check_bool "losses happened" true (s.Bus.dropped_loss > 100);
  check_bool "duplicates happened" true (s.Bus.duplicated > 50);
  (* Every surviving copy was delivered once the queue drained. *)
  check_int "conservation" (s.Bus.sent - s.Bus.dropped_loss + s.Bus.duplicated)
    s.Bus.delivered;
  check_int "delivered = observed" s.Bus.delivered (List.length delivered)

let test_bus_reorders () =
  let bus, seen = collect_bus ~faults:(lossy_cfg ~loss:0. ~dup:0. ()) ~endpoints:2 () in
  (* Overlapping jitter windows: back-to-back sends must swap at least
     once over a long run for this seed. *)
  for i = 0 to 199 do
    Bus.send bus ~src:0 ~dst:1 ~now:i "m"
  done;
  ignore (Bus.pump bus ~now:max_int);
  let times = List.map (fun (_, now, _, _) -> now) (seen ()) in
  check_bool "delivery times are sorted (heap order)" true
    (List.sort compare times = times);
  check_int "all delivered" 200 (List.length times)

let test_bus_partition () =
  let faults =
    Net_fault.make
      ~partitions:
        [ { Net_fault.p_name = "cut"; isolated = [ 1 ]; from_t = 100; heal_t = 200 } ]
      ~seed:1 ()
  in
  let bus, seen = collect_bus ~faults ~endpoints:3 () in
  check_bool "reachable before" true (Bus.reachable bus ~src:0 ~dst:1 ~now:50);
  check_bool "severed during" false (Bus.reachable bus ~src:0 ~dst:1 ~now:150);
  check_bool "both directions" false (Bus.reachable bus ~src:1 ~dst:0 ~now:150);
  check_bool "outside pair unaffected" true (Bus.reachable bus ~src:0 ~dst:2 ~now:150);
  check_bool "healed after" true (Bus.reachable bus ~src:0 ~dst:1 ~now:200);
  Bus.send bus ~src:0 ~dst:1 ~now:150 "dropped";
  Bus.send bus ~src:0 ~dst:2 ~now:150 "kept";
  Bus.send bus ~src:0 ~dst:1 ~now:250 "after-heal";
  ignore (Bus.pump bus ~now:max_int);
  let s = Bus.stats bus in
  check_int "partition drop counted" 1 s.Bus.dropped_partition;
  Alcotest.(check (list string))
    "only unsevered traffic arrives" [ "kept"; "after-heal" ]
    (List.map (fun (_, _, _, m) -> m) (seen ()));
  check_int "last heal" 200 (Net_fault.last_heal faults);
  check_bool "active inside window" true (Net_fault.active_at faults ~now:150);
  check_bool "inactive after" false (Net_fault.active_at faults ~now:200)

let test_bus_crash_clear () =
  let faults = Net_fault.make ~min_delay:(Clock.ms 1) ~seed:3 () in
  let bus, seen = collect_bus ~faults ~endpoints:2 () in
  Bus.send bus ~src:0 ~dst:1 ~now:0 "in-flight";
  check_int "queued" 1 (Bus.pending bus);
  Bus.clear bus;
  check_int "dropped by crash" 0 (Bus.pending bus);
  ignore (Bus.pump bus ~now:max_int);
  check_int "never delivered" 0 (List.length (seen ()));
  check_int "stats survive" 1 (Bus.stats bus).Bus.sent

(* -------------------------------------------------------------------- *)
(* Per-channel backoff streams (satellite: stream forking) *)

let drain ch =
  let b = Backoff.channel ~base_ns:1000 ~cap_ns:8000 ~max_attempts:6 ~seed:42 ~channel:ch () in
  let rec go acc =
    match Backoff.next b with Some d -> go (d :: acc) | None -> List.rev acc
  in
  go []

let test_backoff_channel_pinned () =
  (* Pinned delay schedules: a pure function of (seed, channel). Any
     drift here means some other subsystem's draws leaked into the
     channel stream — exactly what forking exists to prevent. *)
  Alcotest.(check (list int))
    "net:0->1 schedule" [ 1109; 2231; 4029; 9593; 8738; 9094 ] (drain "net:0->1");
  Alcotest.(check (list int))
    "net:1->0 schedule" [ 1248; 2499; 4135; 8670; 8722; 8203 ] (drain "net:1->0");
  let r = Backoff.channel_rng ~seed:42 ~channel:"net:0->1" in
  check_int "rng draw 1" 365565 (Rng.int r 1000000);
  check_int "rng draw 2" 629757 (Rng.int r 1000000);
  check_int "rng draw 3" 727403 (Rng.int r 1000000)

let test_backoff_channel_independence () =
  check_bool "same channel replays" true (drain "net:0->1" = drain "net:0->1");
  check_bool "channels differ" true (drain "net:0->1" <> drain "net:1->0");
  let seeded s =
    let b = Backoff.channel ~seed:s ~channel:"net:0->1" () in
    match Backoff.next b with Some d -> d | None -> -1
  in
  check_bool "seed matters" true (seeded 1 <> seeded 2)

(* -------------------------------------------------------------------- *)
(* Transparent passthrough: the byte-identity pin *)

let pin_cfg ~shards ~seed ~cross_pct ~dur =
  let base =
    {
      Exp_config.default with
      Exp_config.name = "net-pin";
      seed;
      duration_s = dur;
      workers = 4;
      reads_per_txn = 2;
      writes_per_txn = 2;
      schema = { Schema.default with Schema.tables = 2; rows_per_table = 100; record_bytes = 64 };
      llts = [ { Exp_config.start_s = 0.05; duration_s = 0.2; count = 2 } ];
      gc_period = Clock.ms 5;
      sample_period_s = 0.05;
      ckpt_period_s = 0.1;
    }
  in
  {
    (Shard_runner.default ~shards base) with
    Shard_runner.cross_pct;
    check_period = Clock.ms 20;
  }

let test_passthrough_digest_pinned () =
  (* These strings were captured from the pre-net-layer driver (PR 8
     head). The net layer is installed in both runs below — with
     [Net_fault.none] it must be a provably invisible pass-through:
     same commits, same conflicts, same peak bytes, same digest JSON,
     and no net block. *)
  let digest cfg =
    Jsonx.to_string (Shard_runner.digest_to_json (Shard_runner.run cfg).Shard_runner.digest)
  in
  check_str "config A byte-identical to pre-net driver"
    "{\"mode\":\"sim\",\"shards\":3,\"commits\":7701,\"conflicts\":22,\"cross_commits\":3072,\"violations\":0,\"peak_space\":336704,\"throughput\":25670.0}"
    (digest (pin_cfg ~shards:3 ~seed:77 ~cross_pct:40 ~dur:0.3));
  check_str "config B byte-identical to pre-net driver"
    "{\"mode\":\"sim\",\"shards\":2,\"commits\":9783,\"conflicts\":27,\"cross_commits\":4854,\"violations\":0,\"peak_space\":395776,\"throughput\":24457.5}"
    (digest (pin_cfg ~shards:2 ~seed:11 ~cross_pct:50 ~dur:0.4))

(* -------------------------------------------------------------------- *)
(* Sharded campaigns under network faults *)

let net_campaign ?(seed = 42) ?(dur = 0.2) ?(shards = 2) ?(cross_pct = 50) net =
  let base =
    {
      Exp_config.default with
      Exp_config.name = "net-campaign";
      seed;
      duration_s = dur;
      workers = 4;
      reads_per_txn = 2;
      writes_per_txn = 2;
      schema = { Schema.default with Schema.tables = 2; rows_per_table = 100; record_bytes = 64 };
      llts = [ { Exp_config.start_s = 0.02; duration_s = 0.1; count = 1 } ];
      gc_period = Clock.ms 5;
      sample_period_s = 0.05;
      ckpt_period_s = 0.1;
    }
  in
  {
    (Shard_runner.default ~shards base) with
    Shard_runner.cross_pct;
    check_period = Clock.ms 20;
    net;
  }

let test_partition_graceful_degradation () =
  let horizon = Clock.seconds 0.2 in
  let net =
    Net_fault.make ~loss:0.1 ~dup:0.05 ~max_delay:(Clock.us 150)
      ~partitions:
        [
          {
            Net_fault.p_name = "cut";
            isolated = [ 1 ];
            from_t = horizon / 4;
            heal_t = horizon / 2;
          };
        ]
      ~seed:42 ()
  in
  let r = Shard_runner.run (net_campaign net) in
  check_int "no violations (liveness + atomicity + catalogue)" 0
    (Fault_report.violation_count r.Shard_runner.report);
  check_bool "single-shard traffic kept committing" true
    (r.Shard_runner.single_commits > 0);
  check_bool "cross-shard traffic still committed overall" true
    (r.Shard_runner.cross_commits > 0);
  check_bool "partition forced fail-fast aborts" true (r.Shard_runner.net_aborts > 0);
  check_bool "in-doubt residence observed" true (r.Shard_runner.indoubt_max_us > 0);
  (match r.Shard_runner.digest.Shard_runner.d_net with
  | None -> Alcotest.fail "expected a net digest block under faults"
  | Some n ->
      check_bool "drops counted" true (n.Shard_runner.nd_dropped > 0);
      check_bool "retries counted" true (n.Shard_runner.nd_retried > 0));
  (* Satellite: per-shard in-doubt and epoch-lag ride the report as
     gauges. Post-quiesce both must have drained/caught up. *)
  check_int "in-doubt drained (shard 0)" 0
    (Option.value ~default:(-1) (Fault_report.gauge r.Shard_runner.report "net.indoubt_s0"));
  check_int "in-doubt drained (shard 1)" 0
    (Option.value ~default:(-1) (Fault_report.gauge r.Shard_runner.report "net.indoubt_s1"));
  check_bool "epoch lag gauge present and small" true
    (match Fault_report.gauge r.Shard_runner.report "net.epoch_lag_s1" with
    | Some l -> l >= 0 && l <= 12
    | None -> false)

let test_dup_heavy_idempotent_and_reproducible () =
  let net = Net_fault.make ~loss:0.05 ~dup:0.5 ~max_delay:(Clock.us 200) ~seed:9 () in
  let r1 = Shard_runner.run (net_campaign ~seed:9 net) in
  let r2 = Shard_runner.run (net_campaign ~seed:9 net) in
  check_int "duplicate-delivery idempotence: no violations" 0
    (Fault_report.violation_count r1.Shard_runner.report);
  check_bool "duplicates actually flew" true
    (match r1.Shard_runner.digest.Shard_runner.d_net with
    | Some n -> n.Shard_runner.nd_sent > 0 && (Fault_report.gauge r1.Shard_runner.report "net.duplicated" <> Some 0)
    | None -> false);
  check_bool "seeded fault campaign is bit-reproducible" true
    (r1.Shard_runner.digest = r2.Shard_runner.digest);
  check_int "same commits" r1.Shard_runner.commits r2.Shard_runner.commits

(* -------------------------------------------------------------------- *)
(* Cooperative termination and the sabotage modes, deterministically *)

let small_schema =
  { Schema.default with Schema.tables = 2; rows_per_table = 100; record_bytes = 64 }

(* One cross-shard transaction against a fabric where shard 1 is cut
   off just after the prepare leaves: the prepare (sent before the cut
   opens at 2 ms, delayed 10 ms) still lands, while the vote-retry
   budget exhausts around 3 ms — so the abort decision, the late
   votes and the termination queries all die on the cut. Shard 1 is left
   genuinely in doubt. *)
let indoubt_scenario ~heal_t =
  let net =
    Net_fault.make ~min_delay:(Clock.ms 10) ~max_delay:(Clock.us 2)
      ~partitions:
        [ { Net_fault.p_name = "cut"; isolated = [ 1 ]; from_t = Clock.ms 2; heal_t } ]
      ~seed:5 ()
  in
  let g =
    Shard_group.create ~net ~net_rto:(Clock.us 200) ~net_indoubt_after:(Clock.ms 2)
      ~shards:2 small_schema
  in
  let txn, t = Shard_group.begin_txn g ~now:0 in
  (match Shard_group.write g txn ~rid:0 ~payload:1 ~now:t with
  | Engine.Committed_path _ -> ()
  | Engine.Conflict _ -> Alcotest.fail "unexpected conflict");
  (match Shard_group.write g txn ~rid:1 ~payload:2 ~now:t with
  | Engine.Committed_path _ -> ()
  | Engine.Conflict _ -> Alcotest.fail "unexpected conflict");
  let outcome = Shard_group.commit_checked g txn ~now:t in
  (match outcome with
  | Shard_group.Net_abort _ -> ()
  | Shard_group.Committed _ ->
      Alcotest.fail "expected fail-fast: the participant was unreachable");
  check_int "fail-fast counted" 1 (Shard_group.net_aborts g);
  (* Deliver the delayed prepare; shard 1 goes in doubt. *)
  Shard_group.tick g ~now:(Clock.ms 12);
  check_int "participant prepared in doubt" 1 (Shard_group.indoubt_count g ~sid:1);
  g

let test_cooperative_termination_resolves () =
  (* Heal at 30 ms: the termination query must reach the coordinator,
     find no durable decision (only Coord_abort), and resolve the
     participant by presumed abort. *)
  let g = indoubt_scenario ~heal_t:(Clock.ms 30) in
  let endt = Shard_group.quiesce g ~now:(Clock.ms 35) in
  check_int "in-doubt drained after heal" 0 (Shard_group.indoubt_total g);
  check_int "fabric drained" 0 (Shard_group.net_pending g);
  Alcotest.(check (list (pair string string)))
    "liveness clean" [] (Shard_group.check_indoubt_liveness g ~now:endt);
  Alcotest.(check (list (pair string string)))
    "atomicity clean: both sides aborted" []
    (List.map
       (fun { Invariant.invariant; detail } -> (invariant, detail))
       (Invariant.check_cross_shard_atomicity (Shard_group.wals g)))

let test_indoubt_liveness_skips_active_partition () =
  (* A partition that never heals within the run legitimately pins the
     doubt: the liveness invariant must stay silent, not cry wolf. *)
  let g = indoubt_scenario ~heal_t:(Clock.seconds 100.) in
  Alcotest.(check (list (pair string string)))
    "pinned doubt under an active cut is not a violation" []
    (Shard_group.check_indoubt_liveness g ~now:(Clock.seconds 10.))

let test_sabotage_apply_on_timeout_caught () =
  let net =
    Net_fault.make ~min_delay:(Clock.ms 10) ~max_delay:(Clock.us 2)
      ~partitions:
        [
          {
            Net_fault.p_name = "cut";
            isolated = [ 1 ];
            from_t = Clock.ms 2;
            heal_t = Clock.seconds 100.;
          };
        ]
      ~seed:5 ()
  in
  let g =
    Shard_group.create ~net ~net_rto:(Clock.us 200) ~net_indoubt_after:(Clock.ms 2)
      ~shards:2 small_schema
  in
  Shard_group.set_net_sabotage g (Some Shard_group.Apply_on_timeout);
  let txn, t = Shard_group.begin_txn g ~now:0 in
  ignore (Shard_group.write g txn ~rid:0 ~payload:1 ~now:t);
  ignore (Shard_group.write g txn ~rid:1 ~payload:2 ~now:t);
  (match Shard_group.commit_checked g txn ~now:t with
  | Shard_group.Net_abort _ -> ()
  | Shard_group.Committed _ -> Alcotest.fail "expected fail-fast");
  (* Prepare lands at ~10 ms; past the in-doubt timeout the sabotaged
     participant applies a fabricated commit instead of querying. *)
  Shard_group.tick g ~now:(Clock.ms 12);
  check_int "in doubt before the timeout" 1 (Shard_group.indoubt_count g ~sid:1);
  Shard_group.tick g ~now:(Clock.ms 15);
  check_int "unilateral apply resolved the doubt" 0 (Shard_group.indoubt_count g ~sid:1);
  let vs = Invariant.check_cross_shard_atomicity (Shard_group.wals g) in
  check_bool "fabricated commit caught" true (vs <> []);
  check_bool "caught by the 2PC decision/atomicity oracle" true
    (List.for_all
       (fun { Invariant.invariant; _ } ->
         invariant = "2pc-decision-missing" || invariant = "cross-shard-atomicity")
       vs
    && vs <> [])

let test_sabotage_ack_forge_caught () =
  (* Static, even on the transparent fabric: the non-coordinator
     participant rolls its work back yet acks, so the coordinator
     forgets a transaction one shard never applied. *)
  let g = Shard_group.create ~shards:2 small_schema in
  Shard_group.set_net_sabotage g (Some Shard_group.Ack_forge);
  let txn, t = Shard_group.begin_txn g ~now:0 in
  ignore (Shard_group.write g txn ~rid:0 ~payload:1 ~now:t);
  ignore (Shard_group.write g txn ~rid:1 ~payload:2 ~now:t);
  (match Shard_group.commit_checked g txn ~now:t with
  | Shard_group.Committed _ -> ()
  | Shard_group.Net_abort _ -> Alcotest.fail "passthrough cannot be unreachable");
  let vs = Invariant.check_cross_shard_atomicity (Shard_group.wals g) in
  check_bool "forged ack caught" true
    (List.exists
       (fun { Invariant.invariant; _ } -> invariant = "cross-shard-atomicity")
       vs)

(* -------------------------------------------------------------------- *)
(* qcheck: duplicated 2PC frames are recovery no-ops (satellite) *)

let prop_duplicated_frames_idempotent =
  QCheck.Test.make ~name:"duplicated Ack/Forget/Coord_commit frames change nothing"
    ~count:40
    QCheck.(make Gen.(0 -- 100000))
    (fun seed ->
      let rng = Rng.create seed in
      (* One seeded 2PC frame mix: prepares as participant (coord
         elsewhere), decisions as coordinator, acks and forgets — plus
         plain transactions for ballast. *)
      let base_frames =
        List.concat
          (List.init
             (1 + Rng.int rng 6)
             (fun i ->
               let tid = 100 + (i * 10) in
               match Rng.int rng 4 with
               | 0 ->
                   (* prepared here, coordinated by shard 1: in doubt *)
                   [ Wal_record.Txn_begin { tid };
                     Wal_record.Prepare { tid; coord = 1; shards = [ 0; 1 ] } ]
               | 1 ->
                   (* coordinator with a durable decision, partly acked *)
                   [ Wal_record.Coord_commit { gid = tid; cts = tid + 1; shards = [ 0; 1 ] };
                     Wal_record.Ack { gid = tid; shard = 1 } ]
               | 2 ->
                   (* fully settled: decision, both acks, forget *)
                   [ Wal_record.Coord_commit { gid = tid; cts = tid + 1; shards = [ 0; 1 ] };
                     Wal_record.Ack { gid = tid; shard = 0 };
                     Wal_record.Ack { gid = tid; shard = 1 };
                     Wal_record.Forget { gid = tid } ]
               | _ ->
                   [ Wal_record.Txn_begin { tid };
                     Wal_record.Txn_commit { tid; cts = tid + 1 } ]))
      in
      let build frames =
        let w = Wal.create ~shard:0 () in
        Wal.enable_durability w;
        List.iter (fun p -> ignore (Wal.log w p)) frames;
        ignore (Wal.fsync w ());
        Wal_recovery.expect (Wal_recovery.analyze w)
      in
      let dupable = function
        | Wal_record.Ack _ | Wal_record.Forget _ | Wal_record.Coord_commit _ -> true
        | _ -> false
      in
      (* Re-log already-seen dup-able frames at seeded later positions —
         the duplicated/reordered delivery a lossy fabric's resends
         produce. *)
      let dup_frames =
        let seen = ref [] in
        List.concat_map
          (fun p ->
            if dupable p then seen := p :: !seen;
            match !seen with
            | [] -> [ p ]
            | choices when Rng.int rng 100 < 40 ->
                [ p; List.nth choices (Rng.int rng (List.length choices)) ]
            | _ -> [ p ])
          base_frames
      in
      let a = build base_frames and b = build dup_frames in
      a.Wal_recovery.decisions = b.Wal_recovery.decisions
      && a.Wal_recovery.indoubt = b.Wal_recovery.indoubt
      && a.Wal_recovery.committed = b.Wal_recovery.committed
      && a.Wal_recovery.aborted = b.Wal_recovery.aborted
      && a.Wal_recovery.losers = b.Wal_recovery.losers)

(* -------------------------------------------------------------------- *)
(* Satellite: partition-window edge cases, pinned as fixtures. The
   window is [from_t, heal_t) — heal is exclusive, so a zero-length
   window ([from_t = heal_t]) covers no instant at all, overlapping
   windows isolating the same endpoint sever until the LAST heal edge,
   and a heal scheduled before its own start is a config error. *)

let zero_window at =
  { Net_fault.p_name = "zero"; isolated = [ 1 ]; from_t = at; heal_t = at }

let test_zero_length_window_never_severs () =
  let c = Net_fault.make ~partitions:[ zero_window 100 ] ~seed:1 () in
  List.iter
    (fun now ->
      check_bool "never active" false (Net_fault.active_at c ~now);
      check_bool "never severed" true (Net_fault.severed c ~src:0 ~dst:1 ~now = None))
    [ 0; 99; 100; 101; 1000 ];
  check_int "still counts as the last heal edge" 100 (Net_fault.last_heal c)

let test_overlapping_windows_same_endpoint () =
  let w name from_t heal_t =
    { Net_fault.p_name = name; isolated = [ 1 ]; from_t; heal_t }
  in
  (* Two overlapping cuts of endpoint 1: [100,300) and [200,400). The
     first heal edge at 300 must NOT reconnect — the second window
     still covers 300..399. *)
  let c = Net_fault.make ~partitions:[ w "a" 100 300; w "b" 200 400 ] ~seed:1 () in
  let sev now = Net_fault.severed c ~src:0 ~dst:1 ~now in
  check_bool "before both" true (sev 99 = None);
  check_str "first window" "a" (Option.get (sev 150));
  check_str "overlap reports first match" "a" (Option.get (sev 250));
  check_str "past a's heal, b still cuts" "b" (Option.get (sev 300));
  check_str "late in b" "b" (Option.get (sev 399));
  check_bool "healed only at the later edge" true (sev 400 = None);
  check_int "last heal is the max edge" 400 (Net_fault.last_heal c);
  (* Endpoints inside the isolated set still reach each other, and the
     severance is bidirectional while any window is live. *)
  check_bool "self-side unaffected" true (Net_fault.severed c ~src:1 ~dst:1 ~now:250 = None);
  check_bool "bidirectional" true (Net_fault.severed c ~src:1 ~dst:0 ~now:350 <> None)

let test_heal_before_start_rejected () =
  (try
     ignore
       (Net_fault.make
          ~partitions:[ { Net_fault.p_name = "bad"; isolated = [ 0 ]; from_t = 200; heal_t = 100 } ]
          ~seed:1 ());
     Alcotest.fail "heal before window start must be rejected"
   with Invalid_argument _ -> ());
  (* Healing exactly AT the window start is the zero-length window:
     accepted, covers nothing. *)
  let c = Net_fault.make ~partitions:[ zero_window 200 ] ~seed:1 () in
  check_bool "accepted and inert" false (Net_fault.active_at c ~now:200)

let test_zero_length_window_transparent () =
  (* A full sharded campaign whose only fault is a zero-length window:
     the fabric must drop nothing, sever nothing and abort nothing —
     the degenerate schedule behaves like a healthy (though queued)
     network. *)
  let net = Net_fault.make ~partitions:[ zero_window (Clock.ms 50) ] ~seed:5 () in
  let r = Shard_runner.run (net_campaign net) in
  check_int "no violations" 0 (Fault_report.violation_count r.Shard_runner.report);
  check_int "no fail-fast aborts" 0 r.Shard_runner.net_aborts;
  match r.Shard_runner.digest.Shard_runner.d_net with
  | None -> Alcotest.fail "net digest block expected (config is active)"
  | Some n ->
      check_int "zero drops" 0 n.Shard_runner.nd_dropped;
      check_bool "traffic flowed" true (n.Shard_runner.nd_sent > 0)

(* -------------------------------------------------------------------- *)

let suites =
  [
    ( "net-bus",
      [
        Alcotest.test_case "no-fault bus is an inline pass-through" `Quick
          test_passthrough_inline;
        Alcotest.test_case "fault sequences replay bit-for-bit" `Quick test_bus_determinism;
        Alcotest.test_case "loss/dup accounting conserves copies" `Quick
          test_bus_loss_dup_accounting;
        Alcotest.test_case "delayed copies drain in due order" `Quick test_bus_reorders;
        Alcotest.test_case "partitions sever and heal on schedule" `Quick test_bus_partition;
        Alcotest.test_case "crash clears in-flight frames" `Quick test_bus_crash_clear;
      ] );
    ( "net-backoff",
      [
        Alcotest.test_case "per-channel streams pinned" `Quick test_backoff_channel_pinned;
        Alcotest.test_case "channels fork independently" `Quick
          test_backoff_channel_independence;
      ] );
    ( "net-passthrough",
      [
        Alcotest.test_case "no-fault digests byte-identical to pre-net driver" `Quick
          test_passthrough_digest_pinned;
      ] );
    ( "net-campaign",
      [
        Alcotest.test_case "partition degrades gracefully, then drains" `Quick
          test_partition_graceful_degradation;
        Alcotest.test_case "duplicate-heavy fabric stays idempotent + reproducible" `Quick
          test_dup_heavy_idempotent_and_reproducible;
      ] );
    ( "net-termination",
      [
        Alcotest.test_case "cooperative termination resolves after heal" `Quick
          test_cooperative_termination_resolves;
        Alcotest.test_case "liveness check tolerates an unhealed cut" `Quick
          test_indoubt_liveness_skips_active_partition;
        Alcotest.test_case "apply-on-timeout sabotage caught" `Quick
          test_sabotage_apply_on_timeout_caught;
        Alcotest.test_case "ack-forge sabotage caught" `Quick test_sabotage_ack_forge_caught;
      ] );
    ( "net-recovery",
      [ QCheck_alcotest.to_alcotest prop_duplicated_frames_idempotent ] );
    ( "net-partition-edges",
      [
        Alcotest.test_case "zero-length window never severs" `Quick
          test_zero_length_window_never_severs;
        Alcotest.test_case "overlapping windows heal at the later edge" `Quick
          test_overlapping_windows_same_endpoint;
        Alcotest.test_case "heal before start is rejected" `Quick
          test_heal_before_start_rejected;
        Alcotest.test_case "zero-length window is run-transparent" `Quick
          test_zero_length_window_transparent;
      ] );
  ]
