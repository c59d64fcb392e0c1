(* Multicore scaling point (DESIGN §4f — beyond the paper's figures):
   the Domains execution mode under growing offered load.

   One domain hosts ~4 OLTP workers; the sweep grows domains and
   workers together (1x4, 2x8, 4x16) and reports the aggregate
   simulated throughput of the Domains run next to a Sim run of the
   identical configuration. The Sim twin's commits must grow
   monotonically along the curve (gate [monotone]) and every Domains
   digest must stay within the differential tolerance of the
   Sim twin at every point (gate [clean]) — this benchmark measures model fidelity
   under scale, not host parallelism (on a single-core container the
   domains time-share; wall_ms is reported for that reason, simulated
   throughput is the curve). *)

let cfg ~domains =
  {
    (Sweep.workload ~name:(Printf.sprintf "bench-multicore-x%d" domains) ~duration_s:1.5
       ~llt_start:0.3 ~llt_s:0.8 ~llts:1)
    with
    Exp_config.workers = 4 * domains;
  }

let engine schema = Siro_engine.create ~flavor:`Pg schema

type result = {
  c : Exp_config.t;
  sim : Runner.result;
  dom : Runner.result;
  ds : Run_digest.t;
  dd : Run_digest.t;
  mismatches : string list;
  wall_ms : int;  (** the Domains run *)
}

let run_point domains =
  let c = cfg ~domains in
  let sim = Runner.run ~engine c in
  let t0 = Unix.gettimeofday () in
  let dom = Runner.run ~engine ~mode:(Runner.Domains { domains }) c in
  let wall_ms = int_of_float ((Unix.gettimeofday () -. t0) *. 1000.) in
  let ds = sim.Runner.digest and dd = dom.Runner.digest in
  let mismatches = Run_digest.diff ds dd in
  List.iter (fun m -> Printf.printf "!! x%d digest mismatch: %s\n" domains m) mismatches;
  { c; sim; dom; ds; dd; mismatches; wall_ms }

let sweep =
  {
    Sweep.name = "multicore";
    title = "Domains-mode scaling, 1 -> 4 domains";
    expectation =
      "aggregate simulated throughput grows monotonically as domains and workers scale \
       together, and every point's digest stays within the differential tolerance of its \
       deterministic Sim twin (violations always 0)";
    points = [ 1; 2; 4 ];
    run = run_point;
    columns =
      [
        ("domains", fun d _ -> Jsonx.Int d);
        ("workers", fun _ r -> Jsonx.Int r.c.Exp_config.workers);
        ("commits", fun _ r -> Jsonx.Int r.dom.Runner.commits);
        ( "commits_per_s",
          fun _ r -> Jsonx.Float (float_of_int r.dom.Runner.commits /. r.c.Exp_config.duration_s) );
        ("sim_commits", fun _ r -> Jsonx.Int r.sim.Runner.commits);
        ("latency_p50_us", fun _ r -> Jsonx.Int (Run_digest.get_int r.dd "latency_p50_us"));
        ("latency_p99_us", fun _ r -> Jsonx.Int (Run_digest.get_int r.dd "latency_p99_us"));
        ("violations", fun _ r -> Jsonx.Int (Run_digest.get_int r.dd "invariant_violations"));
        ("digest_mismatches", fun _ r -> Jsonx.Int (List.length r.mismatches));
        ("wall_ms", fun _ r -> Jsonx.Int r.wall_ms);
      ];
    fields = (fun _ -> [ ("engine", Jsonx.Str "pg-vdriver") ]);
    gates =
      [
        (* The curve is the deterministic Sim twin's: the Domains run's
           commit count moves with host interleaving. *)
        ( "monotone",
          fun results ->
            Sweep.non_decreasing (List.map (fun (_, r) -> r.sim.Runner.commits) results) );
        ( "clean",
          Sweep.every (fun _ r ->
              Run_digest.get_int r.ds "invariant_violations" = 0
              && Run_digest.get_int r.dd "invariant_violations" = 0
              && r.mismatches = []) );
      ];
    points_key = "points";
  }
