(* The four fixed, seeded workloads of the core benchmark.

   Every workload is a closed loop: N simulated workers, each issuing
   its next transaction only once the previous one finished, plus a
   fleet of long-lived read-only transactions (LLTs). All use Zipf 0.9
   row access, the pg-vdriver engine and 50 ms space samples (the
   default 1 s sample period would never fire in a half-second run and
   peak version space would read 0). Sizes are fixed and ignore
   REPRO_SCALE, so numbers from different commits compare. The seed
   drives every input: the workload's random streams, the crash points
   and the network faults. Each run pools several campaigns seeded from
   the run seed, so one seed's luck moves the pooled numbers little. *)

type outcome = {
  commits : int;
  failed_txns : int;  (** conflicts + give-ups + network aborts *)
  sim_seconds : float;
  peak_version_bytes : int;
  violations : int;  (** invariant violations, all planes *)
  counters : (string * float) list;  (** simulated per-layer counters *)
}

(* Every simulated per-layer counter, in report order. A workload
   reports the ones its layers have; the others read 0. *)
let counter_names =
  [
    "runner.sim_latency_p50_us";
    "runner.sim_latency_p99_us";
    "runner.latch_wait_ms";
    "runner.retries";
    "core.prune_completeness";
    "core.peak_chain";
    "storage.recovery.crashes";
    "storage.recovery.replayed_records";
    "storage.recovery.truncated_frames";
    "engines.shard_group.two_pc_steps";
    "engines.shard_group.cross_commits";
    "engines.shard_group.epochs";
    "fault.invariant.sweeps";
    "net.bus.sent";
    "net.bus.dropped";
    "net.bus.retried";
    "net.bus.net_aborts";
    "net.bus.indoubt_max_us";
    "engines.replica.promotions";
    "engines.replica.fencings";
    "engines.replica.failover_lag_max_us";
  ]

let counter o name = Option.value ~default:0. (List.assoc_opt name o.counters)

type t = {
  name : string;
  why : string;
  campaigns : int;
      (** seeded campaigns per run: enough that pooled simulated metrics
          vary little from seed to seed, few enough for ~20 s of host time *)
  setup : seed:int -> unit;
      (** what [setup_s] times: the engine factory, or
          [Shard_group.create], with this workload's configuration *)
  run : seed:int -> wrap:(Engine.t -> Engine.t) -> outcome;
      (** one whole simulated campaign; [wrap] sees the engine of the
          unsharded workloads and is ignored by the sharded ones *)
  exercised : outcome -> string list;
      (** why the run did not exercise the workload's mechanism; empty
          when it did *)
}

let zipf = [ { Exp_config.at_s = 0.; pattern = Access.Zipfian 0.9 } ]
let small_schema = { Schema.default with Schema.tables = 4; rows_per_table = 250 }

let base ~seed ~duration ~workers ~schema ~llts =
  {
    Exp_config.default with
    Exp_config.name = "core";
    seed;
    duration_s = duration;
    workers;
    schema;
    phases = zipf;
    llts;
    sample_period_s = 0.05;
  }

(* The chaos campaigns' LLT shape: two at a fifth of the run living
   half of it, one at the middle living a quarter. *)
let chaos_llts duration =
  [
    { Exp_config.start_s = duration /. 5.; duration_s = duration /. 2.; count = 2 };
    { Exp_config.start_s = duration /. 2.; duration_s = duration /. 4.; count = 1 };
  ]

let sum_recoveries f rs = List.fold_left (fun acc (x : Engine.restart_info) -> acc + f x) 0 rs

let fi = float_of_int

(* ---- unsharded workloads, through Runner ---- *)

let engine_factory driver_config schema =
  Gc_backend.wrap_engine Gc_backend.default_config
    (fun s -> Siro_engine.create ~driver_config ~flavor:`Pg s)
    schema

let runner_outcome (cfg : Exp_config.t) (r : Runner.result) =
  let lat p =
    if Histogram.total r.Runner.latency_us = 0 then 0
    else Histogram.percentile r.Runner.latency_us p
  in
  let completeness =
    match r.Runner.driver with
    | None -> 0.
    | Some d ->
        let s = Driver.stats d in
        let pruned = Prune_stats.prune1_total s + Prune_stats.prune2_total s in
        let settled = pruned + Prune_stats.stored_total s in
        if settled = 0 then 1. else fi pruned /. fi settled
  in
  let recov f = fi (sum_recoveries f r.Runner.recoveries) in
  {
    commits = r.Runner.commits;
    failed_txns = r.Runner.conflicts + r.Runner.give_ups;
    sim_seconds = cfg.Exp_config.duration_s;
    peak_version_bytes = Runner.peak_space r;
    violations =
      Fault_report.violation_count r.Runner.faults
      + (match r.Runner.driver with Some d -> List.length (Invariant.check_all d) | None -> 0);
    counters =
      [
        ("runner.sim_latency_p50_us", fi (lat 0.5));
        ("runner.sim_latency_p99_us", fi (lat 0.99));
        ("runner.latch_wait_ms", fi r.Runner.latch_wait /. 1e6);
        ("runner.retries", fi r.Runner.retries);
        ("core.prune_completeness", completeness);
        ("core.peak_chain", fi (Runner.peak_chain r));
        ("storage.recovery.crashes", fi r.Runner.crashes);
        ("storage.recovery.replayed_records", recov (fun x -> x.Engine.replayed_records));
        ("storage.recovery.truncated_frames", recov (fun x -> x.Engine.truncated_frames));
        ("fault.invariant.sweeps", fi (Fault_report.checks_run r.Runner.faults));
      ];
  }

(* The paper's regime (Figure 13 table, 16 cores, two 5 s LLTs and a
   2.5 s one): version space grows past the 8 MiB vBuffer, so vSorter,
   vCutter and the version store all work. In memory and without
   faults or periodic audits, so host time stays in the engine; the
   invariant catalogue runs once, at the end. *)
let llt_paper_cfg ~seed =
  base ~seed ~duration:10. ~workers:16 ~schema:Schema.default
    ~llts:
      [
        { Exp_config.start_s = 2.; duration_s = 5.; count = 2 };
        { Exp_config.start_s = 5.; duration_s = 2.5; count = 1 };
      ]

let llt_paper =
  {
    name = "llt-paper";
    why = "the paper's regime: LLTs push version space past the 8 MiB vBuffer, in memory";
    campaigns = 2;
    setup =
      (fun ~seed ->
        ignore (engine_factory State.default_config (llt_paper_cfg ~seed).Exp_config.schema));
    run =
      (fun ~seed ~wrap ->
        let cfg = llt_paper_cfg ~seed in
        let engine s = wrap (engine_factory State.default_config s) in
        runner_outcome cfg (Runner.run ~engine cfg));
    exercised =
      (fun o ->
        let vbuffer = State.default_config.State.vbuffer_bytes in
        if o.peak_version_bytes > vbuffer then []
        else
          [
            Printf.sprintf "peak version space %d B never passed the %d B vBuffer"
              o.peak_version_bytes vbuffer;
          ]);
  }

(* The same engine with every write logged: durable WAL, fuzzy
   checkpoints every 250 ms and six seeded power losses with torn
   tails, placed like the chaos campaigns' crash points. Fits in the
   vBuffer, so the host cost left is logging, checkpointing and restart.
   The plan injects nothing else: the chaos plan's seed-drawn rates (a
   Poisson crash late in the run re-analyses the whole log) made host
   cost per commit vary threefold between seeds. *)
let durable_config = { State.default_config with State.durable_wal = true }
let durable_duration = 4.

let durable_crash_points ~seed =
  let rng = Rng.create (seed lxor 0x632d7074) in
  let lsn = ref Wal.bootstrap_lsn in
  List.init 6 (fun _ ->
      lsn := !lsn + 200 + Rng.int rng 2801;
      !lsn)

let durable_crash =
  {
    name = "durable-crash";
    why = "every write logged: WAL encode and append, checkpoints, crash restart and replay";
    campaigns = 6;
    setup = (fun ~seed:_ -> ignore (engine_factory durable_config small_schema));
    run =
      (fun ~seed ~wrap ->
        let cfg =
          {
            (base ~seed ~duration:durable_duration ~workers:8 ~schema:small_schema
               ~llts:(chaos_llts durable_duration))
            with
            Exp_config.ckpt_period_s = 0.25;
          }
        in
        let faults =
          Fault_plan.create ~seed ~crash_points:(durable_crash_points ~seed) ~torn_tail:true ()
        in
        let engine s = wrap (engine_factory durable_config s) in
        runner_outcome cfg (Runner.run ~engine ~faults cfg));
    exercised =
      (fun o ->
        if counter o "storage.recovery.crashes" >= 1. then []
        else [ "no crash restart happened" ]);
  }

(* ---- sharded workloads, through Shard_runner ---- *)

let shard_outcome (cfg : Shard_runner.cfg) (r : Shard_runner.result) =
  let net f = match r.Shard_runner.digest.Shard_runner.d_net with Some n -> fi (f n) | None -> 0. in
  let rep f = match r.Shard_runner.digest.Shard_runner.d_repl with Some d -> fi (f d) | None -> 0. in
  {
    commits = r.Shard_runner.commits;
    failed_txns = r.Shard_runner.conflicts + r.Shard_runner.net_aborts;
    sim_seconds = cfg.Shard_runner.base.Exp_config.duration_s;
    peak_version_bytes = r.Shard_runner.peak_space;
    violations = Fault_report.violation_count r.Shard_runner.report;
    counters =
      [
        ("storage.recovery.crashes", fi r.Shard_runner.crashes);
        ( "storage.recovery.replayed_records",
          fi (sum_recoveries (fun x -> x.Engine.replayed_records) r.Shard_runner.recoveries) );
        ( "storage.recovery.truncated_frames",
          fi (sum_recoveries (fun x -> x.Engine.truncated_frames) r.Shard_runner.recoveries) );
        ("engines.shard_group.two_pc_steps", fi r.Shard_runner.two_pc_steps);
        ("engines.shard_group.cross_commits", fi r.Shard_runner.cross_commits);
        ("engines.shard_group.epochs", fi r.Shard_runner.epochs);
        ("fault.invariant.sweeps", fi (Fault_report.checks_run r.Shard_runner.report));
        ("net.bus.sent", net (fun n -> n.Shard_runner.nd_sent));
        ("net.bus.dropped", net (fun n -> n.Shard_runner.nd_dropped));
        ("net.bus.retried", net (fun n -> n.Shard_runner.nd_retried));
        ("net.bus.net_aborts", fi r.Shard_runner.net_aborts);
        ("net.bus.indoubt_max_us", fi r.Shard_runner.indoubt_max_us);
        ("engines.replica.promotions", rep (fun d -> d.Shard_runner.rd_promotions));
        ("engines.replica.fencings", rep (fun d -> d.Shard_runner.rd_fencings));
        ("engines.replica.failover_lag_max_us", rep (fun d -> d.Shard_runner.rd_lag_max_us));
      ];
  }

let shard_duration = 0.5

let shard_base ~seed =
  base ~seed ~duration:shard_duration ~workers:8 ~schema:small_schema
    ~llts:(chaos_llts shard_duration)

(* 2PC across four shards with the default 50 ms invariant sweeps, each
   of which re-analyses every shard's log from its first frame. *)
let sharded_2pc =
  {
    name = "sharded-2pc";
    why = "cross-shard 2PC with periodic log audits: WAL analysis, JSON decode and CRC";
    campaigns = 6;
    setup = (fun ~seed:_ -> ignore (Shard_group.create ~shards:4 small_schema));
    run =
      (fun ~seed ~wrap:_ ->
        let cfg = Shard_runner.default ~shards:4 (shard_base ~seed) in
        shard_outcome cfg (Shard_runner.run cfg));
    exercised =
      (fun o ->
        if counter o "engines.shard_group.cross_commits" > 0. then []
        else [ "no cross-shard commit" ]);
  }

(* Two shards, each a three-node group with majority quorum, on a lossy
   fabric: 2% loss, 2% duplication, up to 200 us delay and one 50 ms
   partition isolating a seeded shard at a seeded time. The first
   replication step kills a primary, so every run goes through a full
   lease-expiry failover; a later kill would land on a backup or a
   primary by chance and make runs differ in kind. *)
let netfault ~seed =
  let rng = Rng.create (seed lxor 0x70617274) in
  let from_t = Clock.ms 50 + Rng.int rng (Clock.ms 300) in
  Net_fault.make ~loss:0.02 ~dup:0.02 ~max_delay:(Clock.us 200) ~seed
    ~partitions:
      [ { Net_fault.p_name = "p0"; isolated = [ Rng.int rng 2 ]; from_t; heal_t = from_t + Clock.ms 50 } ]
    ()

let replicated_netfault =
  {
    name = "replicated-netfault";
    why = "replicated shards on a lossy fabric with a failover: log shipping, bus and promotion";
    campaigns = 4;
    setup = (fun ~seed -> ignore (Shard_group.create ~net:(netfault ~seed) ~shards:2 small_schema));
    run =
      (fun ~seed ~wrap:_ ->
        let cfg =
          {
            (Shard_runner.default ~shards:2 (shard_base ~seed)) with
            Shard_runner.net = netfault ~seed;
            replicas = 2;
            kill_steps = [ 1 ];
          }
        in
        shard_outcome cfg (Shard_runner.run cfg));
    exercised =
      (fun o ->
        (if counter o "engines.replica.promotions" >= 1. then [] else [ "no promotion" ])
        @ if counter o "net.bus.dropped" > 0. then [] else [ "no bus drop" ]);
  }

(* The run's campaign seeds: the run seed itself, then seeds drawn from
   it. *)
let campaign_seeds w ~seed =
  let rng = Rng.create seed in
  seed :: List.init (w.campaigns - 1) (fun _ -> Int64.to_int (Rng.next_int64 rng) land 0x3fffffff)

let all = [ llt_paper; durable_crash; sharded_2pc; replicated_netfault ]
let find name = List.find_opt (fun w -> w.name = name) all
