(* Partition tolerance (DESIGN §4i): the sharded deployment with the
   2PC/epoch choreography riding the seeded lossy fabric, swept over
   loss rate x partition duration.

   Each point runs the identical workload in deterministic Sim mode and
   once more on real OCaml 5 domains; both sides must hold the whole
   invariant catalogue — including in-doubt-liveness and the post-heal
   reclamation-lag bound — and the two digests must agree (statistical
   load agreement plus net-block presence). The curve to read:
   throughput degrades gracefully (single-shard traffic keeps
   committing while cross-shard transactions spanning the cut fail
   fast), net aborts and in-doubt residence grow with severity, and
   violations stay 0 at every point. Gates: [clean] (0 violations on
   both sides, 0 digest mismatches) and [degraded_not_dead] (Sim
   commits at every point). *)

let shards = 2

let cfg ~loss ~part_ms =
  let base =
    Sweep.sharded ~name:(Printf.sprintf "bench-partition-l%.2f-p%d" loss part_ms) ~duration_s:0.5
  in
  let horizon = Clock.seconds base.Exp_config.duration_s in
  let net =
    if loss = 0. && part_ms = 0 then Net_fault.none
    else
      let partitions =
        if part_ms = 0 then []
        else
          (* One deterministic mid-run cut isolating shard 0 for
             exactly [part_ms]: the duration axis of the sweep stays a
             controlled variable instead of a seeded draw. *)
          [
            {
              Net_fault.p_name = "bench-cut";
              isolated = [ 0 ];
              from_t = horizon / 4;
              heal_t = (horizon / 4) + Clock.ms part_ms;
            };
          ]
      in
      Net_fault.make ~loss ~dup:0.02 ~max_delay:(Clock.us 150) ~partitions ~seed:Sweep.seed ()
  in
  { (Shard_runner.default ~shards base) with Shard_runner.net }

let net_digest f r =
  Jsonx.Int
    (match r.Sweep.sim.Shard_runner.digest.Shard_runner.d_net with Some n -> f n | None -> 0)

let sweep =
  {
    Sweep.name = "partition";
    title = "Message loss x partition duration";
    expectation =
      "throughput degrades gracefully as loss and partition windows grow — single-shard \
       traffic keeps committing, cross-shard transactions spanning the cut fail fast \
       (net-aborts), in-doubt residence stays bounded and drains after heal; every point \
       passes the invariant catalogue in Sim and Domains modes and the digests agree \
       (violations always 0)";
    points = [ (0.0, 0); (0.05, 0); (0.05, 50); (0.15, 50); (0.15, 150); (0.30, 150) ];
    run =
      (fun (loss, part_ms) ->
        Sweep.pair
          ~label:(Printf.sprintf "loss=%.2f part=%dms" loss part_ms)
          ~domains:2
          (cfg ~loss ~part_ms));
    columns =
      Sweep.pair_columns
        [
          ("loss", fun (loss, _) _ -> Jsonx.Float loss);
          ("partition_ms", fun (_, part_ms) _ -> Jsonx.Int part_ms);
          ("commits", fun _ r -> Jsonx.Int r.sim.commits);
          ("commits_per_s", fun _ r -> Jsonx.Float r.sim.throughput);
          ("cross_commits", fun _ r -> Jsonx.Int r.sim.cross_commits);
          ("single_commits", fun _ r -> Jsonx.Int r.sim.single_commits);
          ("net_aborts", fun _ r -> Jsonx.Int r.sim.net_aborts);
          ("net_sent", fun _ -> net_digest (fun n -> n.Shard_runner.nd_sent));
          ("net_dropped", fun _ -> net_digest (fun n -> n.Shard_runner.nd_dropped));
          ("net_retried", fun _ -> net_digest (fun n -> n.Shard_runner.nd_retried));
          ("indoubt_max_us", fun _ r -> Jsonx.Int r.sim.indoubt_max_us);
          ("indoubt_mean_us", fun _ r -> Jsonx.Float r.sim.indoubt_mean_us);
        ];
    fields = (fun _ -> [ ("shards", Jsonx.Int shards); ("engine", Jsonx.Str "pg-vdriver") ]);
    gates = [ Sweep.clean; Sweep.degraded_not_dead ];
    points_key = "points";
  }
