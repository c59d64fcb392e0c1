(* Command-line driver: run one experiment configuration against one of
   the four engines and print the time series the paper's figures plot. *)

open Cmdliner

let engine_of_string = function
  | "pg" -> Ok (fun _config schema -> Inrow_engine.create schema)
  | "mysql" -> Ok (fun _config schema -> Offrow_engine.create schema)
  | "pg-vdriver" ->
      Ok (fun config schema -> Siro_engine.create ~driver_config:config ~flavor:`Pg schema)
  | "mysql-vdriver" ->
      Ok (fun config schema -> Siro_engine.create ~driver_config:config ~flavor:`Mysql schema)
  | s -> Error (`Msg (Printf.sprintf "unknown engine %S" s))

let engine_conv =
  Arg.conv
    ( (fun s -> Result.map (fun e -> (s, e)) (engine_of_string s)),
      fun fmt (s, _) -> Format.pp_print_string fmt s )

let gc_backend_conv =
  Arg.conv
    ( Gc_backend.kind_of_string,
      fun fmt k -> Format.pp_print_string fmt (Gc_backend.kind_name k) )

let run_cmd =
  let engine =
    Arg.(
      required
      & opt (some engine_conv) None
      & info [ "e"; "engine" ] ~docv:"ENGINE"
          ~doc:"Engine: pg, mysql, pg-vdriver or mysql-vdriver.")
  in
  let duration =
    Arg.(value & opt float 20. & info [ "d"; "duration" ] ~docv:"SECONDS" ~doc:"Simulated duration.")
  in
  let workers = Arg.(value & opt int 16 & info [ "w"; "workers" ] ~doc:"OLTP worker count.") in
  let zipf =
    Arg.(
      value & opt float 0. & info [ "z"; "zipf" ] ~doc:"Zipfian exponent (0 = uniform access).")
  in
  let llt_start = Arg.(value & opt float 5. & info [ "llt-start" ] ~doc:"LLT group start (s).") in
  let llt_duration =
    Arg.(value & opt float 10. & info [ "llt-duration" ] ~doc:"LLT lifetime (s).")
  in
  let llts = Arg.(value & opt int 0 & info [ "llts" ] ~doc:"Number of LLTs in the group.") in
  let tables = Arg.(value & opt int 48 & info [ "tables" ] ~doc:"Number of tables.") in
  let rows = Arg.(value & opt int 1000 & info [ "rows" ] ~doc:"Rows per table.") in
  let record_bytes = Arg.(value & opt int 256 & info [ "record-bytes" ] ~doc:"Record size.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic seed.") in
  let quota =
    Arg.(
      value & opt int 0
      & info [ "quota" ] ~docv:"BYTES"
          ~doc:
            "Hard version-space quota for the governor (vDriver engines only; 0 = disabled). \
             Nonzero arms the Normal/Pressured/Emergency/Shedding ladder and prints its \
             summary after the time series.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event JSON of the run (one thread per pipeline \
             subsystem; load in chrome://tracing or Perfetto). Tracing is off by \
             default and leaves the simulation bit-identical when disabled.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write the flat metrics JSON snapshot (counters, gauges, histogram \
             summaries) collected during the run.")
  in
  let mode =
    Arg.(
      value
      & opt (enum [ ("sim", `Sim); ("domains", `Domains) ]) `Sim
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Execution substrate: $(b,sim) (deterministic discrete-event simulation, the \
             default) or $(b,domains) (real OCaml 5 domains under the bounded-skew \
             window; statistically reproducible, prints the run digest).")
  in
  let ndomains =
    Arg.(
      value & opt int 2
      & info [ "domains" ] ~docv:"N" ~doc:"Domain count for --mode=domains.")
  in
  let gc_backend =
    Arg.(
      value
      & opt gc_backend_conv Gc_backend.Vcutter
      & info [ "gc-backend" ] ~docv:"BACKEND"
          ~doc:
            "GC backend for vDriver engines: $(b,vcutter) (the paper's dead-zone \
             collector, the default), $(b,range) (per-version interval subtraction) or \
             $(b,bounded) (enforced worst-case resident dead-version bound). Ignored by \
             the pg/mysql baselines, which have no vDriver to collect.")
  in
  let run (ename, engine) duration workers zipf llt_start llt_duration llts tables rows
      record_bytes seed quota trace_out metrics_out mode ndomains gc_backend =
    let pattern = if zipf <= 0. then Access.Uniform else Access.Zipfian zipf in
    let cfg =
      {
        Exp_config.default with
        Exp_config.name = ename;
        seed;
        duration_s = duration;
        workers;
        schema = { Schema.default with Schema.tables; rows_per_table = rows; record_bytes };
        phases = [ { Exp_config.at_s = 0.; pattern } ];
        llts =
          (if llts = 0 then []
           else [ { Exp_config.start_s = llt_start; duration_s = llt_duration; count = llts } ]);
      }
    in
    let driver_config =
      if quota <= 0 then State.default_config
      else { State.default_config with State.governor = Governor.governed ~quota_bytes:quota }
    in
    let gc_cfg = { Gc_backend.default_config with Gc_backend.kind = gc_backend } in
    let engine = Gc_backend.wrap_engine gc_cfg (engine driver_config) in
    let rmode =
      match mode with `Sim -> Runner.Sim | `Domains -> Runner.Domains { domains = ndomains }
    in
    (match
       Substrate.unsupported rmode
         [ (Substrate.Obs_export, trace_out <> None || metrics_out <> None) ]
     with
    | Some reason ->
        Printf.eprintf "vdriver_sim: %s; drop --trace/--metrics\n" reason;
        exit 2
    | None -> ());
    let r =
      Obs_export.with_obs ?trace:trace_out ?metrics:metrics_out (fun () ->
          Runner.run ~engine ~mode:rmode cfg)
    in
    Printf.printf "# engine=%s duration=%.0fs workers=%d access=%s llts=%d\n" r.Runner.engine_name
      duration workers
      (Access.pattern_to_string pattern)
      llts;
    (match mode with
    | `Domains ->
        Format.printf "%a@." Run_digest.pp r.Runner.digest
    | `Sim -> ());
    Printf.printf "# commits=%d conflicts=%d llt_reads=%d truncations=%d\n" r.Runner.commits
      r.Runner.conflicts r.Runner.llt_reads r.Runner.truncations;
    Printf.printf "# wal_errors=%d retries=%d give_ups=%d sheds=%d\n" r.Runner.wal_errors
      r.Runner.retries r.Runner.give_ups r.Runner.sheds;
    let rows =
      List.map
        (fun (t, tput) ->
          let at l = match List.find_opt (fun (t', _) -> t' > t -. 0.5 && t' <= t +. 0.5) l with
            | Some (_, v) -> v
            | None -> 0.
          in
          [
            Printf.sprintf "%.0f" t;
            Printf.sprintf "%.0f" tput;
            Table.fmt_bytes (int_of_float (at r.Runner.version_space));
            Printf.sprintf "%.0f" (at r.Runner.max_chain);
            Printf.sprintf "%.0f" (at r.Runner.splits);
          ])
        r.Runner.throughput
    in
    Table.print ~header:[ "sec"; "commits/s"; "version-space"; "max-chain"; "splits" ] rows;
    match r.Runner.driver with
    | Some d when quota > 0 ->
        Format.printf "%a@."
          (fun fmt g -> Governor.pp_summary fmt ~now:(Clock.seconds duration) g)
          (Driver.governor d)
    | _ -> ()
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one experiment and print its time series.")
    Term.(
      const run $ engine $ duration $ workers $ zipf $ llt_start $ llt_duration $ llts $ tables
      $ rows $ record_bytes $ seed $ quota $ trace_out $ metrics_out $ mode $ ndomains
      $ gc_backend)

let compare_cmd =
  let duration =
    Arg.(value & opt float 15. & info [ "d"; "duration" ] ~doc:"Simulated duration (s).")
  in
  let zipf = Arg.(value & opt float 0.9 & info [ "z"; "zipf" ] ~doc:"Zipfian exponent (0 = uniform).") in
  let llts = Arg.(value & opt int 4 & info [ "llts" ] ~doc:"LLTs joining at 1/4 of the run.") in
  let run duration zipf llts =
    let pattern = if zipf <= 0. then Access.Uniform else Access.Zipfian zipf in
    let cfg =
      {
        Exp_config.default with
        Exp_config.name = "compare";
        duration_s = duration;
        schema = { Schema.default with Schema.tables = 8; rows_per_table = 500 };
        phases = [ { Exp_config.at_s = 0.; pattern } ];
        llts =
          (if llts = 0 then []
           else
             [
               {
                 Exp_config.start_s = duration /. 4.;
                 duration_s = duration /. 2.;
                 count = llts;
               };
             ]);
      }
    in
    let engines =
      [
        ("pg", fun s -> Inrow_engine.create s);
        ("mysql", fun s -> Offrow_engine.create s);
        ("pg-vdriver", fun s -> Siro_engine.create ~flavor:`Pg s);
        ("mysql-vdriver", fun s -> Siro_engine.create ~flavor:`Mysql s);
      ]
    in
    let quarter = duration /. 4. in
    let rows =
      List.map
        (fun (name, engine) ->
          let r = Runner.run ~engine cfg in
          let before = Runner.avg_throughput r ~between:(0.5, quarter -. 0.5) in
          let during =
            Runner.avg_throughput r ~between:(quarter +. 2., (3. *. quarter) -. 1.)
          in
          [
            name;
            Printf.sprintf "%.0f" before;
            Printf.sprintf "%.0f" during;
            Table.fmt_bytes (Runner.peak_space r);
            string_of_int (Runner.peak_chain r);
            Printf.sprintf "%d us" (Histogram.percentile r.Runner.latency_us 0.99);
          ])
        engines
    in
    Table.print
      ~header:[ "engine"; "tput"; "tput(LLT)"; "peak-space"; "peak-chain"; "p99-latency" ]
      rows
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run the same LLT scenario on all four engines and compare.")
    Term.(const run $ duration $ zipf $ llts)

let () =
  let doc = "vDriver reproduction simulator (SIGMOD 2020)" in
  let info = Cmd.info "vdriver_sim" ~doc in
  exit (Cmd.eval (Cmd.group info [ run_cmd; compare_cmd ]))
