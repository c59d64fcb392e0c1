(* Shard-count scaling (DESIGN §4g — beyond the paper's figures): the
   sharded vDriver deployment under a fixed offered load and LLT fleet
   as the keyspace splits across 1, 2, 4 and 8 pipelines.

   Each point runs the identical workload in deterministic Sim mode
   (the reported curve: simulated throughput, peak version space,
   cross-shard commit share) and once more on real OCaml 5 domains;
   the two digests must agree at every point and both sides must hold
   every invariant, including the cross-shard atomicity oracle (gate
   [clean]); every multi-shard point must commit through 2PC (gate
   [cross_present]). The simulated-time cost of 2PC is visible as the
   gap between the cross-shard share and a flat curve — sharding the
   pipeline must not change what commits, only where the versions
   live. *)

let cfg ~shards =
  Shard_runner.default ~shards
    (Sweep.sharded ~name:(Printf.sprintf "bench-shard-x%d" shards) ~duration_s:1.0)

let sweep =
  {
    Sweep.name = "shard";
    title = "Sharded pipelines, 1 -> 8 shards";
    expectation =
      "throughput stays flat-ish while per-shard version space shrinks as the keyspace \
       splits; cross-shard (2PC) traffic appears from 2 shards on; every point passes the \
       invariant catalogue in Sim and Domains modes and the two digests agree (violations \
       always 0)";
    points = [ 1; 2; 4; 8 ];
    run =
      (fun shards ->
        Sweep.pair ~label:(Printf.sprintf "x%d" shards) ~domains:(min shards 4) (cfg ~shards));
    columns =
      Sweep.pair_columns
        [
        ("shards", fun n _ -> Jsonx.Int n);
        ("commits", fun _ r -> Jsonx.Int r.sim.commits);
        ("commits_per_s", fun _ r -> Jsonx.Float r.sim.throughput);
        ("cross_commits", fun _ r -> Jsonx.Int r.sim.cross_commits);
        ("single_commits", fun _ r -> Jsonx.Int r.sim.single_commits);
        ("two_pc_steps", fun _ r -> Jsonx.Int r.sim.two_pc_steps);
        ("conflicts", fun _ r -> Jsonx.Int r.sim.conflicts);
        ("llt_reads", fun _ r -> Jsonx.Int r.sim.llt_reads);
        ("peak_space_bytes", fun _ r -> Jsonx.Int r.sim.peak_space);
        ("final_space_bytes", fun _ r -> Jsonx.Int r.sim.final_space);
        ("epochs", fun _ r -> Jsonx.Int r.sim.epochs);
        ];
    fields = (fun _ -> [ ("engine", Jsonx.Str "pg-vdriver") ]);
    gates =
      [
        Sweep.clean;
        ( "cross_present",
          Sweep.every (fun shards r -> shards = 1 || r.Sweep.sim.cross_commits > 0) );
      ];
    points_key = "points";
  }
