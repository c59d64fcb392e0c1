(* Replicated-shard failover (DESIGN §4j): the full vDriver pipeline
   per shard with WAL log-shipping to quorum-acknowledged backups,
   swept over replication factor x node-kill count.

   Each point runs the identical workload in deterministic Sim mode and
   once more on real OCaml 5 domains; both sides must hold the whole
   invariant catalogue — including no-committed-loss, no-split-brain
   and the bounded-failover-lag budget — and the two digests must
   agree. The curves to read: commit throughput pays a modest
   replication tax that grows with the quorum size, kills dent but
   never collapse it (single-copy shards keep committing while a
   victim's clients wait out one lease), and promotion lag stays within
   lease + sweep slack at every point with violations 0. Gates:
   [clean] (0 violations on both sides, 0 digest mismatches) and
   [degraded_not_dead] (Sim commits at every point). *)

let shards = 2

let cfg ~replicas ~kills =
  let base =
    Sweep.sharded ~name:(Printf.sprintf "bench-failover-r%d-k%d" replicas kills) ~duration_s:0.5
  in
  (* Kill schedule in replication-step position, spread across the
     run: step traffic is roughly proportional to commit traffic, so
     fractions of an estimated total place the kills mid-workload
     deterministically (the estimate only shifts where they land, never
     whether the invariants must hold). *)
  let est_steps = 60_000 in
  let kill_steps =
    List.init kills (fun i -> (i + 1) * est_steps / (kills + 1))
  in
  { (Shard_runner.default ~shards base) with Shard_runner.replicas; kill_steps }

let pct lags p =
  match List.sort compare lags with
  | [] -> 0
  | l ->
      let n = List.length l in
      List.nth l (min (n - 1) (p * n / 100))

let repl_digest f r =
  Jsonx.Int
    (match r.Sweep.sim.Shard_runner.digest.Shard_runner.d_repl with Some d -> f d | None -> 0)

let sweep =
  {
    Sweep.name = "failover";
    title = "Replication factor x node kills";
    expectation =
      "quorum replication costs a modest, quorum-proportional commit tax; node kills dent \
       throughput for about one lease per kill while surviving shards keep committing; \
       every promotion completes within the lease + sweep slack and the no-committed-loss, \
       no-split-brain and bounded-failover-lag oracles stay clean in Sim and Domains modes \
       with agreeing digests";
    points = [ (1, 0); (1, 2); (2, 0); (2, 2); (2, 4) ];
    run =
      (fun (replicas, kills) ->
        Sweep.pair
          ~label:(Printf.sprintf "r=%d k=%d" replicas kills)
          ~domains:2
          (cfg ~replicas ~kills));
    columns =
      Sweep.pair_columns
        [
          ("replicas", fun (replicas, _) _ -> Jsonx.Int replicas);
          ("kills", fun (_, kills) _ -> Jsonx.Int kills);
          ("commits", fun _ r -> Jsonx.Int r.sim.commits);
          ("commits_per_s", fun _ r -> Jsonx.Float r.sim.throughput);
          ("cross_commits", fun _ r -> Jsonx.Int r.sim.cross_commits);
          ("single_commits", fun _ r -> Jsonx.Int r.sim.single_commits);
          ("promotions", fun _ -> repl_digest (fun d -> d.Shard_runner.rd_promotions));
          ("recovery_restarts", fun _ -> repl_digest (fun d -> d.Shard_runner.rd_restarts));
          ("failover_lag_p50_us", fun _ r -> Jsonx.Int (pct r.sim.failover_lags_us 50));
          ("failover_lag_p99_us", fun _ r -> Jsonx.Int (pct r.sim.failover_lags_us 99));
          ( "failover_lags_us",
            fun _ r -> Jsonx.Arr (List.map (fun l -> Jsonx.Int l) r.sim.failover_lags_us) );
        ];
    fields = (fun _ -> [ ("shards", Jsonx.Int shards); ("engine", Jsonx.Str "pg-vdriver") ]);
    gates = [ Sweep.clean; Sweep.degraded_not_dead ];
    points_key = "points";
  }
