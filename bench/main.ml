(* Benchmark harness entry point: regenerates every figure of the
   paper's evaluation section (§5) plus bechamel micro-benchmarks.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig13 fig15
     REPRO_SCALE=0.5 dune exec bench/main.exe   # halve all durations

   Exit status: 0 when every requested bench ran and every sweep gate
   held, 1 when any gate failed (after all requested benches ran), 2 for
   an unknown bench name or a REPRO_SCALE that is not a positive finite
   number (before anything runs).

   Table 1 of the paper is notation only; Figures 1/2/4-12 are design
   illustrations. The evaluation artifacts are Figures 3 and 13-19. *)

let all : (string * (unit -> unit)) list =
  [
    ("fig3", Fig03.run);
    ("fig13", Fig13.run);
    ("fig14", Fig14.run);
    ("fig15", Fig15.run);
    ("fig16", Fig16.run);
    ("fig17", Fig17.run);
    ("fig18", Fig18.run);
    ("fig19", Fig19.run);
    ("ablation", Ablation.run);
    ("recovery", Recovery.run);
    ("liveness", Sweep.run Liveness.sweep);
    ("micro", Micro.run);
    ("obs", Obs_point.run);
    ("multicore", Sweep.run Multicore.sweep);
    ("shard", Sweep.run Shard_bench.sweep);
    ("partition", Sweep.run Partition_bench.sweep);
    ("gc_shootout", Sweep.run Gc_shootout.sweep);
    ("failover", Sweep.run Failover.sweep);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst all
  in
  (match List.filter (fun name -> not (List.mem_assoc name all)) requested with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown bench %s\nusage: main.exe [NAME...]  (known: %s)\n"
        (String.concat ", " unknown)
        (String.concat ", " (List.map fst all));
      exit 2);
  Printf.printf
    "vDriver reproduction benchmarks (REPRO_SCALE=%.2f)\n\
     Engines: postgres-vanilla | mysql-vanilla | postgres-vdriver | mysql-vdriver\n"
    Common.scale;
  List.iter
    (fun name ->
      let t0 = Unix.gettimeofday () in
      (List.assoc name all) ();
      Printf.printf "[%s done in %.1fs]\n%!" name (Unix.gettimeofday () -. t0))
    requested;
  match Sweep.failures () with
  | [] -> ()
  | failed ->
      Printf.eprintf "failed gates: %s\n" (String.concat ", " failed);
      exit 1
