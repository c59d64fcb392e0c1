(* Pluggable GC backend tests (DESIGN §4h).

   Three layers:

   - plumbing: backend-name parsing is total and stable, installation
     is visible through [Gc_backend.installed_name] / the run digest;
   - the pinned regression: the default (vcutter) backend installed
     behind [Driver.maintain] reproduces the seed path's exact pinned
     counters — the refactor is byte-identical, not merely equivalent;
   - qcheck properties: Definition-3.3 prune soundness holds for all
     three backends under random plans x histories (the continuous
     audit plus the periodic catalogue sweep must stay silent), and the
     bounded backend's post-step dead-resident checkpoint never exceeds
     K under adversarial LLT fleets.

   Each backend's defect knob, caught on a workload its honest twin
   survives cleanly, is a row of the sabotage registry (test_sabotage).

   Store traffic matters: dead-zone pruning keeps the vBuffer so small
   that a default-config run never hardens a segment, which would leave
   the cutter-side reclaim paths untested. The store-heavy configs here
   shrink the vBuffer so every backend's harden/reclaim machinery runs
   (the same lever `chaos --vbuffer` pulls). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let pg_vdriver schema = Siro_engine.create ~flavor:`Pg schema

(* A 64 KiB vBuffer (one segment) forces steady hardened-store
   traffic: versions pinned by a live LLT are flushed instead of aging
   in the buffer, and die in the store when the LLT ends. *)
let store_driver_config = { State.default_config with State.vbuffer_bytes = 64 * 1024 }

let pg_vdriver_store schema =
  Siro_engine.create ~driver_config:store_driver_config ~flavor:`Pg schema

let wrap ?bounded_max_dead kind engine =
  let cfg = { Gc_backend.default_config with Gc_backend.kind } in
  let cfg =
    match bounded_max_dead with
    | None -> cfg
    | Some k -> { cfg with Gc_backend.bounded_max_dead = k }
  in
  Gc_backend.wrap_engine cfg engine

(* -------------------------------------------------------------------- *)
(* Plumbing *)

let test_kind_parsing () =
  List.iter
    (fun k ->
      match Gc_backend.kind_of_string (Gc_backend.kind_name k) with
      | Ok k' -> check_bool ("roundtrip " ^ Gc_backend.kind_name k) true (k = k')
      | Error (`Msg m) -> Alcotest.fail m)
    Gc_backend.all_kinds;
  check_int "three backends" 3 (List.length Gc_backend.all_kinds);
  check_int "vcutter id" 0 (Gc_backend.kind_id Gc_backend.Vcutter);
  check_int "range id" 1 (Gc_backend.kind_id Gc_backend.Range);
  check_int "bounded id" 2 (Gc_backend.kind_id Gc_backend.Bounded);
  let contains hay needle =
    let hl = String.length hay and nl = String.length needle in
    let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
    at 0
  in
  match Gc_backend.kind_of_string "nosuch" with
  | Ok _ -> Alcotest.fail "unknown backend name accepted"
  | Error (`Msg m) -> check_bool "error names the offender" true (contains m "nosuch")

let test_install_api () =
  let e = pg_vdriver { Schema.default with Schema.tables = 1; rows_per_table = 10 } in
  match e.Engine.driver with
  | None -> Alcotest.fail "siro engine must expose its driver"
  | Some d ->
      check_str "un-hooked name" "vcutter" (Gc_backend.installed_name d);
      check_bool "un-hooked gauges empty" true (Gc_backend.gauges d = []);
      check_bool "un-hooked frontier absent" true (Gc_backend.frontier d = None);
      Gc_backend.install d { Gc_backend.default_config with Gc_backend.kind = Gc_backend.Range };
      check_str "range installed" "range" (Gc_backend.installed_name d);
      check_bool "range gauges present" true (Gc_backend.gauges d <> []);
      check_bool "frontier present" true (Gc_backend.frontier d <> None);
      Gc_backend.uninstall d;
      check_str "uninstalled" "vcutter" (Gc_backend.installed_name d)

(* -------------------------------------------------------------------- *)
(* The pinned regression: default backend byte-identical post-refactor.
   Same config and constants as test_differential's sim pinning — a
   drift here with the vcutter hook installed (but not in
   test_differential's bare run) means the hook path diverged from the
   seed maintenance pair. *)

let pinned_cfg () =
  {
    Exp_config.default with
    Exp_config.name = "gc-pinned";
    seed = 1234;
    duration_s = 1.0;
    workers = 8;
    schema = { Schema.default with Schema.tables = 4; rows_per_table = 250 };
    phases = [ { Exp_config.at_s = 0.; pattern = Access.Zipfian 0.9 } ];
    llts = [ { Exp_config.start_s = 0.2; duration_s = 0.5; count = 2 } ];
  }

let stats_tuple (r : Runner.result) =
  match r.Runner.driver with
  | None -> Alcotest.fail "vDriver engine must expose its driver"
  | Some d ->
      let s = Driver.stats d in
      ( Prune_stats.relocated s,
        Prune_stats.prune1_total s,
        Prune_stats.prune2_total s,
        Prune_stats.stored_total s )

let test_vcutter_hook_byte_identical () =
  let bare = Runner.run ~engine:pg_vdriver (pinned_cfg ()) in
  let hooked = Runner.run ~engine:(wrap Gc_backend.Vcutter pg_vdriver) (pinned_cfg ()) in
  (* Exact equality against the bare run, field by field... *)
  check_int "commits" bare.Runner.commits hooked.Runner.commits;
  check_int "conflicts" bare.Runner.conflicts hooked.Runner.conflicts;
  check_int "llt_reads" bare.Runner.llt_reads hooked.Runner.llt_reads;
  check_int "peak space" (Runner.peak_space bare) (Runner.peak_space hooked);
  check_int "final space" (Runner.final_space bare) (Runner.final_space hooked);
  check_int "peak chain" (Runner.peak_chain bare) (Runner.peak_chain hooked);
  check_bool "prune stats identical" true (stats_tuple bare = stats_tuple hooked);
  (* ...and against the pinned seed constants, so this test still bites
     if both paths drift together. *)
  check_int "pinned commits" 28700 hooked.Runner.commits;
  check_int "pinned conflicts" 223 hooked.Runner.conflicts;
  check_int "pinned llt_reads" 22263 hooked.Runner.llt_reads;
  check_int "pinned peak space" 141568 (Runner.peak_space hooked);
  let relocated, p1, p2, stored = stats_tuple hooked in
  check_int "pinned relocated" 56177 relocated;
  check_int "pinned prune1" 42312 p1;
  check_int "pinned prune2" 13865 p2;
  check_int "pinned stored" 0 stored

(* -------------------------------------------------------------------- *)
(* Digest identity *)

let small_cfg ?(llts = 1) seed =
  {
    Exp_config.default with
    Exp_config.name = "gc-small";
    seed;
    duration_s = 0.3;
    workers = 4;
    schema = { Schema.default with Schema.tables = 2; rows_per_table = 200; record_bytes = 64 };
    phases = [ { Exp_config.at_s = 0.; pattern = Access.Zipfian 0.9 } ];
    llts =
      (if llts = 0 then []
       else [ { Exp_config.start_s = 0.05; duration_s = 0.15; count = llts } ]);
  }

let test_digest_backend_field () =
  let gc_backend r =
    match Run_digest.find r.Runner.digest "gc_backend" with Some (Run_digest.Str s) -> s | _ -> "-"
  in
  List.iter
    (fun kind ->
      let cfg = small_cfg 7 in
      let r = Runner.run ~engine:(wrap kind pg_vdriver_store) cfg in
      check_str
        ("digest names " ^ Gc_backend.kind_name kind)
        (Gc_backend.kind_name kind) (gc_backend r))
    Gc_backend.all_kinds;
  let cfg = small_cfg 7 in
  let bare = Runner.run ~engine:pg_vdriver cfg in
  check_str "un-hooked digest says vcutter" "vcutter" (gc_backend bare)

(* -------------------------------------------------------------------- *)
(* qcheck: Definition-3.3 soundness for all three backends under random
   plans x histories. The runner arms the continuous prune audit and
   the periodic catalogue sweep (which includes each backend's own
   check); any violation fails the property. *)

type gc_case = {
  g_seed : int;
  g_duration_cs : int;
  g_workers : int;
  g_llts : int;
  g_kind : int;  (* index into all_kinds *)
  g_fault : int option;
}

let gc_case_to_string c =
  Printf.sprintf "{seed=%d; duration=%.2fs; workers=%d; llts=%d; backend=%s; fault=%s}"
    c.g_seed
    (float_of_int c.g_duration_cs /. 100.)
    c.g_workers c.g_llts
    (Gc_backend.kind_name (List.nth Gc_backend.all_kinds c.g_kind))
    (match c.g_fault with None -> "none" | Some s -> string_of_int s)

let gc_case_gen =
  QCheck.Gen.(
    map
      (fun ((g_seed, g_duration_cs, g_workers), (g_llts, g_kind, f)) ->
        { g_seed; g_duration_cs; g_workers; g_llts; g_kind; g_fault = (if f < 150 then None else Some f) })
      (pair
         (triple (int_range 1 1_000_000) (int_range 20 40) (int_range 3 5))
         (triple (int_range 0 2) (int_range 0 2) (int_range 0 599))))

let cfg_of_gc_case c =
  let duration_s = float_of_int c.g_duration_cs /. 100. in
  {
    Exp_config.default with
    Exp_config.name = "gc-qcheck";
    seed = c.g_seed;
    duration_s;
    workers = c.g_workers;
    reads_per_txn = 2;
    writes_per_txn = 1;
    schema = { Schema.default with Schema.tables = 2; rows_per_table = 200; record_bytes = 64 };
    phases = [ { Exp_config.at_s = 0.; pattern = Access.Zipfian 0.9 } ];
    llts =
      (if c.g_llts = 0 then []
       else
         [
           {
             Exp_config.start_s = duration_s /. 4.;
             duration_s = duration_s /. 2.;
             count = c.g_llts;
           };
         ]);
    sample_period_s = 0.1;
    gc_period = Clock.ms 5;
  }

let qcheck_soundness =
  QCheck.Test.make
    ~name:"every backend prune-sound under random plans x histories" ~count:18
    (QCheck.make ~print:gc_case_to_string gc_case_gen)
    (fun c ->
      let kind = List.nth Gc_backend.all_kinds c.g_kind in
      let faults =
        match c.g_fault with
        | None -> Fault_plan.none
        | Some s -> Fault_plan.without_crashes (Fault_plan.random ~seed:s ())
      in
      let r = Runner.run ~engine:(wrap kind pg_vdriver_store) ~faults (cfg_of_gc_case c) in
      match Fault_report.violations r.Runner.faults with
      | [] -> true
      | v :: _ ->
          QCheck.Test.fail_reportf "%d violation(s) on %s, first: [%s] %s"
            (Fault_report.violation_count r.Runner.faults)
            (gc_case_to_string c) v.Fault_report.invariant v.Fault_report.detail)

(* qcheck: the BBF+ bound holds under adversarial LLT fleets — several
   staggered groups whose deaths each dump a storm of dead versions
   into the store at once. The honest collector must keep every
   post-step dead-resident checkpoint within K even when the storm
   exceeds the governor budget. *)

let fleet_to_string (seed, groups) =
  Printf.sprintf "{seed=%d; groups=%s}" seed
    (String.concat ","
       (List.map (fun (s, d, n) -> Printf.sprintf "(%.2f+%.2fs x%d)" s d n) groups))

let fleet_gen =
  QCheck.Gen.(
    pair (int_range 1 1_000_000)
      (list_size (int_range 1 3)
         (triple
            (map (fun i -> float_of_int i /. 100.) (int_range 5 25))
            (map (fun i -> float_of_int i /. 100.) (int_range 10 30))
            (int_range 1 3))))

let qcheck_bounded_bound =
  QCheck.Test.make ~name:"bounded backend holds K under adversarial LLT fleets" ~count:12
    (QCheck.make ~print:fleet_to_string fleet_gen)
    (fun (seed, groups) ->
      let k = 64 in
      let cfg =
        {
          Exp_config.default with
          Exp_config.name = "gc-fleet";
          seed;
          duration_s = 0.6;
          workers = 4;
          schema =
            { Schema.default with Schema.tables = 2; rows_per_table = 200; record_bytes = 64 };
          phases = [ { Exp_config.at_s = 0.; pattern = Access.Zipfian 0.9 } ];
          llts =
            List.map
              (fun (start_s, duration_s, count) -> { Exp_config.start_s; duration_s; count })
              groups;
          sample_period_s = 0.1;
          gc_period = Clock.ms 5;
        }
      in
      let r =
        Runner.run
          ~engine:(wrap ~bounded_max_dead:k Gc_backend.Bounded pg_vdriver_store)
          ~faults:Fault_plan.none cfg
      in
      if Fault_report.violation_count r.Runner.faults <> 0 then
        QCheck.Test.fail_reportf "violations on %s" (fleet_to_string (seed, groups));
      match r.Runner.driver with
      | None -> QCheck.Test.fail_report "driver missing"
      | Some d ->
          let peak =
            match List.assoc_opt "gc.bounded.peak_dead" (Gc_backend.gauges d) with
            | Some v -> v
            | None -> QCheck.Test.fail_report "peak_dead gauge missing"
          in
          if peak > k then
            QCheck.Test.fail_reportf "peak dead-resident %d exceeds K=%d on %s" peak k
              (fleet_to_string (seed, groups))
          else true)

let suites =
  [
    ( "gc-backend",
      [
        Alcotest.test_case "backend names parse and roundtrip" `Quick test_kind_parsing;
        Alcotest.test_case "install / uninstall / gauges / frontier" `Quick test_install_api;
        Alcotest.test_case "vcutter hook byte-identical to seed path" `Slow
          test_vcutter_hook_byte_identical;
        Alcotest.test_case "digest carries the backend name" `Slow test_digest_backend_field;
        QCheck_alcotest.to_alcotest qcheck_soundness;
        QCheck_alcotest.to_alcotest qcheck_bounded_bound;
      ] );
  ]
