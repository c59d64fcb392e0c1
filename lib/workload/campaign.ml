let seeds ~seed n =
  let rng = Rng.create seed in
  List.init n (fun _ -> Int64.to_int (Rng.next_int64 rng) land 0x3fffffff)

let config ~seed ~duration ~ckpt_ms =
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
    sample_period_s = 0.05;
    ckpt_period_s = float_of_int ckpt_ms /. 1000.;
  }

(* [n] ascending points: [from] plus cumulative gaps in [lo, lo + spread)
   drawn from a stream seeded [seed lxor tweak]. The LSN crash points,
   2PC crash steps and replication kill steps are all drawn this way. *)
let schedule ~seed ~tweak ~from ~gap:(lo, spread) n =
  let rng = Rng.create (seed lxor tweak) in
  let at = ref from in
  List.init (max 0 n) (fun _ ->
      at := !at + lo + Rng.int rng spread;
      !at)

(* Crash points by log position: gaps wide enough to let relocations,
   hardens and cuts land between crashes, tight enough that several
   crashes interrupt them mid-flight. Points below the bootstrap
   checkpoint are meaningless; start past it (every shard's, when
   sharded). *)
let lsn_tweak = 0x632d7074

let engine ?sabotage ?(quota = 0) ?(vbuffer = 0) ?(gc = Gc_backend.default_config) ~durable
    create =
  let governor =
    if quota <= 0 then Governor.default_config else Governor.governed ~quota_bytes:quota
  in
  let config = { State.default_config with State.governor; durable_wal = durable } in
  let config = Sabotage.driver_config sabotage config in
  let config = if vbuffer <= 0 then config else { config with State.vbuffer_bytes = vbuffer } in
  Gc_backend.wrap_engine gc (create config)

let plan ?stalls ?zombies ~crash_points ~seed () =
  let points =
    schedule ~seed ~tweak:lsn_tweak ~from:Wal.bootstrap_lsn ~gap:(200, 2801) crash_points
  in
  Fault_plan.random ~crash_points:points ~torn_tail:(points <> []) ?stalls ?zombies ~seed ()

let sharded ?(scenario = Shard_router.Uniform_shards) ?(cross_pct = 30) ?(crash_points = 0)
    ?(crash_steps = 0) ?sabotage ?net ?(replicas = 0) ?(rep_quorum = 0) ?(kill_nodes = false)
    ?(kill_steps = 0) ~seed ~duration ~ckpt_ms ~shards () =
  if kill_nodes && (crash_points > 0 || crash_steps > 0) then
    invalid_arg "Campaign.sharded: node kills and crash schedules do not compose";
  let points =
    schedule ~seed ~tweak:lsn_tweak ~from:(shards * Wal.bootstrap_lsn) ~gap:(400, 4001) crash_points
  in
  let steps = schedule ~seed ~tweak:0x32706373 ~from:0 ~gap:(5, 80) crash_steps in
  {
    (Shard_runner.default ~shards (config ~seed ~duration ~ckpt_ms)) with
    Shard_runner.scenario;
    cross_pct;
    faults =
      (if kill_nodes then Fault_plan.random_nodes ~seed ()
       else
         Fault_plan.create ~crash_points:points ~torn_tail:(points <> [] || steps <> [])
           ~check_period:(Clock.ms 50) ());
    crash_steps = steps;
    sabotage;
    net =
      (match net with
      | None -> Net_fault.none
      | Some (loss, dup, delay_us, partitions) ->
          Fault_plan.random_net ~loss ~dup ~delay_us ~partitions ~shards
            ~horizon:(Clock.seconds duration) ~seed ());
    replicas;
    rep_quorum = (if rep_quorum > 0 then Some rep_quorum else None);
    (* Replication-step kills: gaps wide enough that the group recovers
       (promotes and re-syncs) between kills. *)
    kill_steps = schedule ~seed ~tweak:0x6b737470 ~from:0 ~gap:(50, 400) kill_steps;
  }
