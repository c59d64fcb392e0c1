(* Recovery-time comparison (§3.5 / §4.2 — beyond the paper's figures).

   Build committed history, leave a batch of loser transactions in
   flight, crash, and compare simulated recovery work: stock MySQL must
   scan rollback-segment undo headers to identify losers before rolling
   them back; PostgreSQL identifies losers directly through pg_xact; the
   SIRO engines additionally roll back by bit toggles and drop all
   off-row state wholesale — near-instant recovery. Gate [losers_undone]:
   no loser's write survives on any engine. *)

let schema = { Schema.default with Schema.tables = 4; rows_per_table = 500 }

let run_engine name =
  let eng = Common.make_engine name schema in
  let now = ref 0 in
  let tick () =
    now := !now + Clock.us 100;
    !now
  in
  (* Committed history: fills undo space / heap versions. Keep a reader
     alive so vanilla GC cannot reclaim it before the crash. *)
  let pin, _ = eng.Engine.begin_txn ~now:(tick ()) in
  for i = 1 to 4_000 do
    let txn, _ = eng.Engine.begin_txn ~now:(tick ()) in
    (match eng.Engine.write txn ~rid:(i mod Schema.records schema) ~payload:i ~now:(tick ()) with
    | Engine.Committed_path _ -> ()
    | Engine.Conflict _ -> ());
    ignore (eng.Engine.commit txn ~now:(tick ()))
  done;
  ignore pin;
  (* Losers: 16 transactions, 8 writes each, all in flight at the crash. *)
  let losers =
    List.init 16 (fun i ->
        let txn, _ = eng.Engine.begin_txn ~now:(tick ()) in
        for k = 0 to 7 do
          match
            eng.Engine.write txn ~rid:(((i * 31) + (k * 7)) mod Schema.records schema)
              ~payload:(-1) ~now:(tick ())
          with
          | Engine.Committed_path _ | Engine.Conflict _ -> ()
        done;
        txn)
  in
  ignore losers;
  let space_before = (eng.Engine.sample ()).Engine.version_bytes in
  let recovery = eng.Engine.crash () in
  (* Correctness: no -1 payload survives. *)
  let probe, _ = eng.Engine.begin_txn ~now:(tick ()) in
  let clean = ref true in
  for rid = 0 to Schema.records schema - 1 do
    let payload, _ = eng.Engine.read probe ~rid ~now:(tick ()) in
    if payload = -1 then clean := false
  done;
  ignore (eng.Engine.commit probe ~now:(tick ()));
  (name, recovery, space_before, !clean)

(* ------------------------------------------------------------------ *)
(* Durable-WAL restart point: run the pg-vdriver engine with the
   ARIES-lite log armed, crash at the end of the workload, and measure
   the restart as a function of the checkpoint interval. Shorter
   intervals bound the redo tail (fewer records to replay, higher
   apparent replay throughput per unit of recovery time); 0 disables
   the periodic checkpointer so recovery replays from the initial
   image — the worst case. Exported as BENCH_recovery.json. Gates:
   [replay_shrinks] (replayed records fall strictly as the interval
   tightens) and [losers_rolled_back] (> 0 at every interval). *)

let durable_cfg ~ckpt_s =
  {
    (Sweep.workload ~name:"bench-recovery" ~duration_s:4. ~llt_start:1. ~llt_s:2. ~llts:2) with
    Exp_config.ckpt_period_s = ckpt_s;
  }

type restart = {
  r : Runner.result;
  info : Engine.restart_info;
  wall : float;
  wal_records : int;
}

let restart_point ckpt_ms =
  let driver_config = { State.default_config with State.durable_wal = true } in
  let captured = ref None in
  let engine schema =
    let e = Siro_engine.create ~driver_config ~flavor:`Pg schema in
    captured := Some e;
    e
  in
  let cfg = durable_cfg ~ckpt_s:(float_of_int ckpt_ms /. 1000.) in
  let r = Runner.run ~engine cfg in
  let eng = match !captured with Some e -> e | None -> failwith "engine not captured" in
  let st : State.t =
    match r.Runner.driver with Some d -> d | None -> failwith "no driver"
  in
  let wal = match st.State.wal with Some w -> w | None -> failwith "no durable wal" in
  let restart =
    match eng.Engine.restart with Some f -> f | None -> failwith "no restart closure"
  in
  (* Post-run burst past the last checkpointer tick (which fires at the
     horizon, leaving an empty redo tail): committed work that must be
     replayed, plus in-flight losers the restart must roll back. *)
  let now = ref (Clock.seconds cfg.Exp_config.duration_s + Clock.ms 1) in
  let tick () =
    now := !now + Clock.us 50;
    !now
  in
  let records = Schema.records cfg.Exp_config.schema in
  (* Losers first so the burst's commit fsyncs carry their begin records
     past the durability frontier — the crash must not erase them. *)
  let losers =
    List.init 8 (fun i ->
        let txn, _ = eng.Engine.begin_txn ~now:(tick ()) in
        (match eng.Engine.write txn ~rid:((i * 131) mod records) ~payload:(-1) ~now:(tick ()) with
        | Engine.Committed_path _ | Engine.Conflict _ -> ());
        txn)
  in
  ignore losers;
  for i = 1 to 2_000 do
    let txn, _ = eng.Engine.begin_txn ~now:(tick ()) in
    (match eng.Engine.write txn ~rid:(i mod records) ~payload:i ~now:(tick ()) with
    | Engine.Committed_path _ | Engine.Conflict _ -> ());
    ignore (eng.Engine.commit txn ~now:(tick ()))
  done;
  let wal_records = Wal.records wal in
  Wal.crash wal ~keep_lsn:(Wal.flushed_lsn wal);
  let now = tick () in
  let t0 = Unix.gettimeofday () in
  let info = restart ~now in
  let wall = Unix.gettimeofday () -. t0 in
  { r; info; wall; wal_records }

let cost_us p = float_of_int p.info.Engine.recovery_cost /. float_of_int (Clock.us 1)

let restart_sweep =
  {
    Sweep.name = "recovery";
    title = "Restart replay vs checkpoint interval";
    expectation =
      "shorter checkpoint intervals bound the redo tail: fewer records replayed and a \
       cheaper restart, at the price of more checkpoints during the run; with the \
       checkpointer off, recovery replays the whole history";
    (* Deliberately not divisors of the run length: a divisor puts the
       last checkpoint exactly at the horizon and every interval then
       shows the same (burst-only) redo tail. *)
    points = [ 0; 1100; 270; 70 ];
    run = restart_point;
    columns =
      [
        ("ckpt_ms", fun ms _ -> Jsonx.Int ms);
        ("commits", fun _ p -> Jsonx.Int p.r.Runner.commits);
        ("wal_records", fun _ p -> Jsonx.Int p.wal_records);
        ("replayed_records", fun _ p -> Jsonx.Int p.info.Engine.replayed_records);
        ("replayed_versions", fun _ p -> Jsonx.Int p.info.Engine.replayed_versions);
        ("losers_rolled_back", fun _ p -> Jsonx.Int p.info.Engine.losers_rolled_back);
        ("truncated_frames", fun _ p -> Jsonx.Int p.info.Engine.truncated_frames);
        ("recovered_to_lsn", fun _ p -> Jsonx.Int p.info.Engine.recovered_to_lsn);
        ("recovery_cost_us", fun _ p -> Jsonx.Float (cost_us p));
        ( "replay_records_per_s",
          fun _ p ->
            Jsonx.Float
              (if cost_us p <= 0. then 0.
               else float_of_int p.info.Engine.replayed_records /. (cost_us p /. 1e6)) );
        ("wall_s", fun _ p -> Jsonx.Float p.wall);
      ];
    fields = (fun _ -> [ ("engine", Jsonx.Str "pg-vdriver") ]);
    gates =
      [
        ( "replay_shrinks",
          fun results ->
            Sweep.decreasing (List.map (fun (_, p) -> p.info.Engine.replayed_records) results) );
        ("losers_rolled_back", Sweep.every (fun _ p -> p.info.Engine.losers_rolled_back > 0));
      ];
    points_key = "points";
  }

let run () =
  Common.section ~figure:"Recovery" ~title:"Crash-recovery work by engine (§3.5, §4.2)"
    ~expectation:
      "MySQL pays an undo-header scan proportional to live undo records to \
       identify losers; PostgreSQL consults the commit log directly; the \
       SIRO engines recover near-instantly (bit toggles, off-row state \
       dropped wholesale)";
  let runs = List.map run_engine [ "pg"; "mysql"; "pg-vdriver"; "mysql-vdriver" ] in
  Table.print ~header:[ "engine"; "recovery-work"; "version-space-at-crash"; "losers-undone" ]
    (List.map
       (fun (name, recovery, space, clean) ->
         [
           name;
           Format.asprintf "%a" Clock.pp recovery;
           Table.fmt_bytes space;
           (if clean then "yes" else "NO");
         ])
       runs);
  Sweep.gate ~bench:"recovery" "losers_undone" (List.for_all (fun (_, _, _, clean) -> clean) runs);
  Sweep.run restart_sweep ()
