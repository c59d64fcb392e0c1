(* Sim-vs-Domains differential tests.

   The Exec substrate is unit-tested on its own (window respect and
   completion on real domains, crash containment), then the two Runner
   modes are compared end to end: a pinned-config regression proves the
   default Sim path still produces the exact seed numbers, and a qcheck
   property drives both modes over random configurations and fault
   plans, requiring zero invariant violations on both sides and an
   empty {!Run_digest.diff}. A Domains digest with its commit and retry
   counters lost must produce a non-empty diff — the harness's ability
   to notice lost updates is itself under test. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -------------------------------------------------------------------- *)
(* Exec substrate *)

(* On real domains every task completes its full step count, the
   dispatched-step telemetry adds up, and no step ever ran further
   ahead of the frontier than the window allows. *)
let test_domains_completion_and_skew () =
  let window = Clock.us 100 in
  let tasks = 6 and steps_each = 200 in
  let counts = Array.make tasks 0 in
  let e = Exec.domains ~window ~domains:3 () in
  for i = 0 to tasks - 1 do
    let period = Clock.us (3 + i) in
    Exec.spawn e
      ~name:(Printf.sprintf "d%d" i)
      ~at:(Clock.us i)
      (fun now ->
        counts.(i) <- counts.(i) + 1;
        if counts.(i) >= steps_each then Exec.Finished
        else Exec.Sleep_until (now + period))
  done;
  let (_ : Clock.time) = Exec.run e ~until:(Clock.seconds 1.) in
  Array.iteri (fun i c -> check_int (Printf.sprintf "task %d steps" i) steps_each c) counts;
  check_int "total dispatched steps" (tasks * steps_each) (Exec.steps e);
  check_bool "skew bounded by window" true (Exec.max_skew_observed e <= window);
  check_int "frontier settles at until" (Clock.seconds 1.) (Exec.frontier e)

(* A task whose step raises is retired (it cannot wedge the window for
   the survivors) and the exception resurfaces from [run] after the
   join, with every other task having completed normally. *)
let test_domains_crash_containment () =
  let healthy = Array.make 2 0 in
  let e = Exec.domains ~domains:2 () in
  let boom_steps = ref 0 in
  Exec.spawn e ~name:"boom" ~at:0 (fun now ->
      incr boom_steps;
      if !boom_steps >= 3 then failwith "boom"
      else Exec.Sleep_until (now + Clock.us 5));
  for i = 0 to 1 do
    Exec.spawn e
      ~name:(Printf.sprintf "ok%d" i)
      ~at:(Clock.us 1)
      (fun now ->
        healthy.(i) <- healthy.(i) + 1;
        if healthy.(i) >= 100 then Exec.Finished
        else Exec.Sleep_until (now + Clock.us 4))
  done;
  Alcotest.check_raises "task exception re-raised after join" (Failure "boom")
    (fun () -> ignore (Exec.run e ~until:(Clock.seconds 1.) : Clock.time));
  check_int "crashed task stopped at the raise" 3 !boom_steps;
  Array.iteri
    (fun i c -> check_int (Printf.sprintf "survivor %d completed" i) 100 c)
    healthy

let test_spawn_after_run_rejected () =
  let e = Exec.domains ~domains:1 () in
  Exec.spawn e ~name:"t" ~at:0 (fun _ -> Exec.Finished);
  ignore (Exec.run e ~until:(Clock.ms 1) : Clock.time);
  Alcotest.check_raises "spawn after run" (Invalid_argument "Exec.spawn: run already started")
    (fun () -> Exec.spawn e ~name:"late" ~at:0 (fun _ -> Exec.Finished))

(* -------------------------------------------------------------------- *)
(* Sim pinning: the default-mode runner still produces the exact seed
   numbers after the Metrics / Prune_stats domain-safety rewrites. *)

let pg_vdriver schema = Siro_engine.create ~flavor:`Pg schema
let mysql_vdriver schema = Siro_engine.create ~flavor:`Mysql schema

let pinned_cfg () =
  {
    Exp_config.default with
    Exp_config.name = "pinned";
    seed = 1234;
    duration_s = 1.0;
    workers = 8;
    schema = { Schema.default with Schema.tables = 4; rows_per_table = 250 };
    phases = [ { Exp_config.at_s = 0.; pattern = Access.Zipfian 0.9 } ];
    llts = [ { Exp_config.start_s = 0.2; duration_s = 0.5; count = 2 } ];
  }

let test_sim_pinned_clean () =
  let r = Runner.run ~engine:pg_vdriver (pinned_cfg ()) in
  check_int "commits" 28700 r.Runner.commits;
  check_int "conflicts" 223 r.Runner.conflicts;
  check_int "llt_reads" 22263 r.Runner.llt_reads;
  check_int "retries" 0 r.Runner.retries;
  check_int "give_ups" 0 r.Runner.give_ups;
  check_int "sheds" 0 r.Runner.sheds;
  check_int "peak space" 141568 (Runner.peak_space r);
  check_int "final space" 141568 (Runner.final_space r);
  check_int "peak chain" 40 (Runner.peak_chain r);
  match r.Runner.driver with
  | None -> Alcotest.fail "vDriver engine must expose its driver"
  | Some d ->
      let s = d.State.stats in
      check_int "relocated" 56177 (Prune_stats.relocated s);
      check_int "prune1" 42312 (Prune_stats.prune1_total s);
      check_int "prune2" 13865 (Prune_stats.prune2_total s);
      check_int "stored" 0 (Prune_stats.stored_total s)

let test_sim_pinned_faulted () =
  let faults = Fault_plan.random ~seed:77 () in
  let r = Runner.run ~engine:pg_vdriver ~faults (pinned_cfg ()) in
  check_int "commits" 28786 r.Runner.commits;
  check_int "conflicts" 226 r.Runner.conflicts;
  check_int "retries" 7 r.Runner.retries;
  check_int "give_ups" 0 r.Runner.give_ups;
  check_int "violations" 0 (Fault_report.violation_count r.Runner.faults)

(* -------------------------------------------------------------------- *)
(* Differential property *)

type case = {
  c_seed : int;
  c_duration_cs : int;  (* simulated centiseconds, 30..50 *)
  c_workers : int;
  c_zipf : bool;
  c_llts : int;
  c_domains : int;
  c_fault : int option;  (* crash-free random plan seed *)
}

let case_to_string c =
  Printf.sprintf
    "{seed=%d; duration=%.2fs; workers=%d; zipf=%b; llts=%d; domains=%d; fault=%s}"
    c.c_seed
    (float_of_int c.c_duration_cs /. 100.)
    c.c_workers c.c_zipf c.c_llts c.c_domains
    (match c.c_fault with None -> "none" | Some s -> string_of_int s)

let case_gen =
  QCheck.Gen.(
    map
      (fun ((c_seed, c_duration_cs, c_workers), (c_zipf, c_llts, c_domains, f)) ->
        {
          c_seed;
          c_duration_cs;
          c_workers;
          c_zipf;
          c_llts;
          c_domains;
          c_fault = (if f < 200 then None else Some f);
        })
      (pair
         (triple (int_range 1 1_000_000) (int_range 30 50) (int_range 3 5))
         (quad bool (int_range 0 2) (int_range 1 3) (int_range 0 599))))

let cfg_of_case c =
  let duration_s = float_of_int c.c_duration_cs /. 100. in
  {
    Exp_config.default with
    Exp_config.name = "diff";
    seed = c.c_seed;
    duration_s;
    workers = c.c_workers;
    reads_per_txn = 2;
    writes_per_txn = 1;
    schema = { Schema.default with Schema.tables = 2; rows_per_table = 200; record_bytes = 64 };
    phases =
      [ { Exp_config.at_s = 0.; pattern = (if c.c_zipf then Access.Zipfian 0.9 else Access.Uniform) } ];
    llts =
      (if c.c_llts = 0 then []
       else
         [
           {
             Exp_config.start_s = duration_s /. 4.;
             duration_s = duration_s /. 2.;
             count = c.c_llts;
           };
         ]);
    sample_period_s = 0.1;
    gc_period = Clock.ms 5;
  }

let violations d = Run_digest.get_int d "invariant_violations"

(* Both modes run under fresh-but-equal plans (a plan's [poll] is
   stateful, so each run gets its own instance from the same seed). *)
let digests_of_case ?(engine = pg_vdriver) c =
  let cfg = cfg_of_case c in
  let plan () = Option.map (fun s -> Fault_plan.random ~crashes:false ~seed:s ()) c.c_fault in
  let sim = Runner.run ~engine ?faults:(plan ()) cfg in
  let dom =
    Runner.run ~engine ?faults:(plan ()) ~mode:(Runner.Domains { domains = c.c_domains }) cfg
  in
  (sim.Runner.digest, dom.Runner.digest)

let qcheck_differential =
  QCheck.Test.make ~name:"sim and domains modes agree (digest + invariants)" ~count:25
    (QCheck.make ~print:case_to_string case_gen)
    (fun c ->
      let ds, dd = digests_of_case c in
      if violations ds <> 0 then
        QCheck.Test.fail_reportf "sim mode violated invariants on %s" (case_to_string c);
      if violations dd <> 0 then
        QCheck.Test.fail_reportf "domains mode violated invariants on %s" (case_to_string c);
      match Run_digest.diff ds dd with
      | [] -> true
      | msgs ->
          QCheck.Test.fail_reportf "digest mismatch on %s:\n  %s" (case_to_string c)
            (String.concat "\n  " msgs))

(* Three pinned cases that once probed interesting corners (faulted
   zipf run, fault-free uniform run, three-domain LLT run) stay green
   forever. *)
let regression_cases =
  [
    ( "regression seed A (faulted, zipf)",
      pg_vdriver,
      { c_seed = 11; c_duration_cs = 40; c_workers = 4; c_zipf = true; c_llts = 1; c_domains = 2; c_fault = Some 301 } );
    ( "regression seed B (clean, uniform)",
      mysql_vdriver,
      { c_seed = 4242; c_duration_cs = 35; c_workers = 5; c_zipf = false; c_llts = 0; c_domains = 2; c_fault = None } );
    ( "regression seed C (3 domains, LLTs)",
      pg_vdriver,
      { c_seed = 90210; c_duration_cs = 45; c_workers = 4; c_zipf = true; c_llts = 2; c_domains = 3; c_fault = Some 555 } );
  ]

let test_regression (name, engine, c) () =
  let ds, dd = digests_of_case ~engine c in
  check_int (name ^ ": sim violations") 0 (violations ds);
  check_int (name ^ ": domains violations") 0 (violations dd);
  match Run_digest.diff ds dd with
  | [] -> ()
  | msgs ->
      Format.eprintf "%s:@.sim digest: %a@.domains digest: %a@." name Run_digest.pp ds
        Run_digest.pp dd;
      Alcotest.fail (name ^ ": " ^ String.concat "; " msgs)

(* Lost updates: a Domains digest whose commit and retry counters never
   reached the aggregate (what a missing publication edge would leave)
   must surface as a mismatch against an honest Sim twin. *)
let test_lost_counters_caught () =
  let c =
    { c_seed = 77; c_duration_cs = 40; c_workers = 4; c_zipf = true; c_llts = 1; c_domains = 2; c_fault = None }
  in
  let ds, dd = digests_of_case c in
  check_bool "honest digests agree" true (Run_digest.diff ds dd = []);
  let lost =
    List.map
      (fun (r : Run_digest.row) ->
        if r.name = "commits" || r.name = "retries" then { r with value = Run_digest.Int 0 } else r)
      dd
  in
  check_bool "lost counters differ" true (Run_digest.diff ds lost <> [])

(* Domains mode rejects every Sim-only row of the capability table
   loudly; each row maps to the input that requests it. *)
let test_domains_rejects_sim_only () =
  let c = { c_seed = 1; c_duration_cs = 30; c_workers = 3; c_zipf = false; c_llts = 0; c_domains = 2; c_fault = None } in
  let mode = Runner.Domains { domains = 2 } in
  let domains_lacks = List.filter (fun r -> not r.Substrate.domains) Substrate.table in
  check_bool "table has Sim-only rows" true (domains_lacks <> []);
  List.iter
    (fun (r : Substrate.row) ->
      let run () =
        match r.Substrate.feature with
        | Substrate.Watchdog ->
            Runner.run ~engine:pg_vdriver ~watchdog:Watchdog.default_config ~mode (cfg_of_case c)
        | Substrate.Crash_faults ->
            let faults = Fault_plan.random ~crash_points:[ 500 ] ~seed:1 () in
            Runner.run ~engine:pg_vdriver ~faults ~mode (cfg_of_case c)
        | Substrate.Obs_export ->
            Metrics.with_registry (Metrics.create ()) (fun () ->
                Runner.run ~engine:pg_vdriver ~mode (cfg_of_case c))
        | Substrate.Direct_lag_monitor -> Alcotest.fail "not a requestable feature"
      in
      let reason =
        Option.get (Substrate.unsupported mode [ (r.Substrate.feature, true) ])
      in
      Alcotest.check_raises r.Substrate.name
        (Invalid_argument ("Runner.run: " ^ reason))
        (fun () -> ignore (run () : Runner.result)))
    domains_lacks

let suites =
  [
    ( "exec",
      [
        Alcotest.test_case "domains complete within skew window" `Quick
          test_domains_completion_and_skew;
        Alcotest.test_case "task crash contained and re-raised" `Quick
          test_domains_crash_containment;
        Alcotest.test_case "spawn after run rejected" `Quick test_spawn_after_run_rejected;
      ] );
    ( "differential",
      [
        Alcotest.test_case "sim pinned to seed numbers (clean)" `Slow test_sim_pinned_clean;
        Alcotest.test_case "sim pinned to seed numbers (faulted)" `Slow test_sim_pinned_faulted;
        QCheck_alcotest.to_alcotest qcheck_differential;
        Alcotest.test_case "lost counters caught" `Slow test_lost_counters_caught;
        Alcotest.test_case "watchdog rejected in domains mode" `Quick
          test_domains_rejects_sim_only;
      ]
      @ List.map
          (fun ((name, _, _) as rc) -> Alcotest.test_case name `Slow (test_regression rc))
          regression_cases );
  ]
