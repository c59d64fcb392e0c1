(* The counter table against the hand-written digests it replaced.

   Random digest pairs go through both the derived {!Run_digest.diff}
   and the reference diff in ref_digest.ml; the two must flag the same
   set of fields. The unsharded rows are read off a real run's table, so
   the rules under test are the ones {!Runner.run} declares, and a rule
   weakened there shows up here as a field the reference flags and the
   table does not. *)

let check_bool = Alcotest.(check bool)

module U = Ref_digest.Unsharded

(* A derived mismatch names its row or block before the first colon. *)
let derived_names msgs =
  List.sort_uniq compare
    (List.map
       (fun m ->
         match String.index_opt m ':' with
         | Some i -> (
             match String.sub m 0 i with
             | "repl.replicas" | "repl.quorum" -> "repl.config"
             | n -> n)
         | None -> m)
       msgs)

(* The reference spells its messages by hand; map each back to the
   field it flags. *)
let ref_unsharded_name msg =
  match String.index_opt msg ':' with
  | None -> msg
  | Some i ->
      let prefix = String.sub msg 0 i in
      if String.ends_with ~suffix:" mode" prefix then
        let rest = String.sub msg (i + 1) (String.length msg - i - 1) in
        match String.split_on_char ' ' (String.trim rest) with
        | "chain" :: _ -> "max_holes"
        | "prune" :: _ -> "prune_in_flight"
        | _ -> "invariant_violations"
      else prefix

let ref_sharded_name msg =
  match String.index_opt msg ':' with
  | None -> List.hd (String.split_on_char ' ' msg)
  | Some i -> String.map (fun c -> if c = ' ' then '.' else c) (String.sub msg 0 i)

(* ------------------------------------------------------------------ *)
(* Unsharded: the reference record as rows of the runner's own table. *)

let template =
  lazy
    (let cfg =
       {
         Exp_config.default with
         Exp_config.name = "digest-template";
         seed = 3;
         duration_s = 0.2;
         workers = 2;
         schema = { Schema.default with Schema.tables = 2; rows_per_table = 50 };
         llts = [];
         sample_period_s = 0.05;
       }
     in
     let engine schema = Siro_engine.create ~flavor:`Pg schema in
     (Runner.run ~engine ~watchdog:Watchdog.default_config cfg).Runner.digest)

let ref_value (d : U.t) name =
  let i n = Some (Run_digest.Int n) and f x = Some (Run_digest.Float x) in
  match name with
  | "mode" -> Some (Run_digest.Str d.U.mode)
  | "domains" -> i d.U.domains
  | "gc_backend" -> Some (Run_digest.Str d.U.gc_backend)
  | "commits" -> i d.U.commits
  | "conflicts" -> i d.U.conflicts
  | "llt_reads" -> i d.U.llt_reads
  | "retries" -> i d.U.retries
  | "give_ups" -> i d.U.give_ups
  | "sheds" -> i d.U.sheds
  | "wal_errors" -> i d.U.wal_errors
  | "faults_injected" -> i d.U.faults_injected
  | "invariant_violations" -> i d.U.invariant_violations
  | "peak_space" -> i d.U.peak_space
  | "final_space" -> i d.U.final_space
  | "peak_chain" -> i d.U.peak_chain
  | "prune_relocated" -> i d.U.prune_relocated
  | "prune_in_flight" -> i d.U.prune_in_flight
  | "prune_completeness" -> f d.U.prune_completeness
  | "max_holes" -> i d.U.max_holes
  | "holey_chains" -> i d.U.holey_chains
  | "avg_throughput" -> f d.U.avg_throughput
  | "latency_p50_us" -> i d.U.latency_p50_us
  | "latency_p99_us" -> i d.U.latency_p99_us
  | "chain_p50" -> i d.U.chain_p50
  | "chain_p99" -> i d.U.chain_p99
  | "max_reclamation_lag_us" -> if d.U.lag_armed then i d.U.max_reclamation_lag_us else None
  | _ -> None

let ref_fields =
  [
    "mode"; "domains"; "gc_backend"; "commits"; "conflicts"; "llt_reads"; "retries";
    "give_ups"; "sheds"; "wal_errors"; "faults_injected"; "invariant_violations"; "peak_space";
    "final_space"; "peak_chain"; "prune_relocated"; "prune_in_flight"; "prune_completeness";
    "max_holes"; "holey_chains"; "avg_throughput"; "latency_p50_us"; "latency_p99_us";
    "chain_p50"; "chain_p99"; "max_reclamation_lag_us";
  ]

let rows_of_ref d =
  List.filter_map
    (fun (r : Run_digest.row) -> Option.map (fun value -> { r with value }) (ref_value d r.name))
    (Lazy.force template)

let test_template_has_every_field () =
  let names = List.map (fun (r : Run_digest.row) -> r.name) (Lazy.force template) in
  List.iter
    (fun f -> check_bool ("runner table declares " ^ f) true (List.mem f names))
    ref_fields

let unsharded_agree (a, b) =
  derived_names (Run_digest.diff (rows_of_ref a) (rows_of_ref b))
  = List.sort_uniq compare (List.map ref_unsharded_name (U.diff a b))

(* Pairs of counts: equal, nearby, scaled or unrelated, from zero to
   large, so every tolerance is probed on both sides of its edge. *)
let count_pair st =
  let open QCheck.Gen in
  let base =
    frequency
      [ (2, return 0); (2, int_range 1 20); (3, int_range 0 2_000); (3, int_range 0 200_000) ]
  in
  let x = base st in
  let y =
    frequency
      [
        (3, return x);
        (3, map (fun d -> max 0 (x + d)) (int_range (-600) 600));
        (2, map (fun f -> int_of_float (float_of_int x *. f)) (float_range 0. 4.));
        (2, base);
      ]
      st
  in
  (x, y)

let mostly_zero st =
  let g = QCheck.Gen.(frequency [ (4, return 0); (1, int_range 1 5) ]) in
  (g st, g st)

let same_or g st =
  let a = g st in
  (a, if QCheck.Gen.bool st then a else g st)

let gen_unsharded st =
  let open QCheck.Gen in
  let c () = count_pair st in
  let frac = same_or (float_range 0. 1.) st
  and tput = same_or (float_range 0. 100_000.) st
  and backend = same_or (oneofl [ "vcutter"; "range"; "bounded" ]) st
  and domains = same_or (int_range 1 4) st
  and commits = c () and conflicts = c () and llt_reads = c () and retries = c ()
  and give_ups = c () and sheds = c () and wal_errors = c () and faults = c ()
  and violations = mostly_zero st
  and peak_space = c () and final_space = c () and peak_chain = c ()
  and relocated = c () and in_flight = same_or (int_range (-3) 3) st
  and holes = same_or (int_range 0 3) st and holey = c ()
  and p50 = c () and p99 = c () and cp50 = c () and cp99 = c ()
  and lag_armed = (bool st, bool st) and lag = c () in
  let mk first mode =
    let pick (a, b) = if first then a else b in
    {
      U.mode;
      domains = pick domains;
      gc_backend = pick backend;
      commits = pick commits;
      conflicts = pick conflicts;
      llt_reads = pick llt_reads;
      retries = pick retries;
      give_ups = pick give_ups;
      sheds = pick sheds;
      wal_errors = pick wal_errors;
      faults_injected = pick faults;
      invariant_violations = pick violations;
      peak_space = pick peak_space;
      final_space = pick final_space;
      peak_chain = pick peak_chain;
      prune_relocated = pick relocated;
      prune_in_flight = pick in_flight;
      prune_completeness = pick frac;
      max_holes = pick holes;
      holey_chains = pick holey;
      avg_throughput = pick tput;
      latency_p50_us = pick p50;
      latency_p99_us = pick p99;
      chain_p50 = pick cp50;
      chain_p99 = pick cp99;
      lag_armed = pick lag_armed;
      max_reclamation_lag_us = pick lag;
    }
  in
  (mk true "sim", mk false "domains")

let print_unsharded (a, b) = Format.asprintf "@[<v>%a@ %a@]" U.pp a U.pp b

let qcheck_unsharded =
  QCheck.Test.make ~name:"unsharded table diff flags what the reference flags" ~count:2000
    (QCheck.make ~print:print_unsharded gen_unsharded)
    unsharded_agree

(* The pairs the property must never miss, pinned: each is flagged by
   the reference and by the table. *)
let test_unsharded_edges () =
  let a, _ = gen_unsharded (Random.State.make [| 7 |]) in
  let honest =
    { a with U.invariant_violations = 0; max_holes = 0; prune_in_flight = 0; lag_armed = false }
  in
  let edges =
    [
      ("max_holes > 1", { honest with U.max_holes = 2 });
      ("negative prune_in_flight", { honest with U.prune_in_flight = -1 });
      ("gc_backend mismatch", { honest with U.gc_backend = honest.U.gc_backend ^ "x" });
      ("violations", { honest with U.invariant_violations = 1 });
      ("commits lost", { honest with U.commits = honest.U.commits + 100_000 });
    ]
  in
  check_bool "honest pair agrees" true
    (Run_digest.diff (rows_of_ref honest) (rows_of_ref honest) = []);
  List.iter
    (fun (name, b) ->
      check_bool (name ^ ": reference flags it") true (U.diff honest b <> []);
      check_bool (name ^ ": same fields") true (unsharded_agree (honest, b)))
    edges;
  (* Lag is compared only when both runs armed the monitor. *)
  let armed = { honest with U.lag_armed = true; max_reclamation_lag_us = 900_000 } in
  check_bool "lag armed on one side only: same fields" true (unsharded_agree (honest, armed));
  check_bool "lag armed on one side only: agrees" true
    (Run_digest.diff (rows_of_ref honest) (rows_of_ref armed) = [])

(* ------------------------------------------------------------------ *)
(* Sharded: the typed digest through the derived and the reference
   JSON and diff. *)

let gen_sharded st =
  let open QCheck.Gen in
  let c () = count_pair st in
  let present () =
    let g = frequency [ (3, return true); (1, return false) ] in
    (g st, g st)
  in
  let shards = same_or (int_range 1 4) st
  and commits = c () and conflicts = c () and cross = c () and violations = mostly_zero st
  and peak = c () and tput = same_or (float_range 0. 100_000.) st
  and net_on = present ()
  and sent = c () and dropped = c () and retried = c () and aborts = c () and indoubt = c ()
  and repl_on = present ()
  and replicas = same_or (int_range 1 3) st and quorum = same_or (int_range 1 3) st
  and kills = c () and revives = c () and promotions = c () and fencings = c ()
  and stale = mostly_zero st and restarts = c () and lag = c () in
  let mk first mode =
    let pick (a, b) = if first then a else b in
    {
      Shard_runner.d_mode = mode;
      d_shards = pick shards;
      d_commits = pick commits;
      d_conflicts = pick conflicts;
      d_cross_commits = pick cross;
      d_violations = pick violations;
      d_peak_space = pick peak;
      d_throughput = pick tput;
      d_net =
        (if pick net_on then
           Some
             {
               Shard_runner.nd_sent = pick sent;
               nd_dropped = pick dropped;
               nd_retried = pick retried;
               nd_net_aborts = pick aborts;
               nd_indoubt_max_us = pick indoubt;
             }
         else None);
      d_repl =
        (if pick repl_on then
           Some
             {
               Shard_runner.rd_replicas = pick replicas;
               rd_quorum = pick quorum;
               rd_kills = pick kills;
               rd_revives = pick revives;
               rd_promotions = pick promotions;
               rd_fencings = pick fencings;
               rd_stale_acks = pick stale;
               rd_restarts = pick restarts;
               rd_lag_max_us = pick lag;
             }
         else None);
    }
  in
  (mk true "sim", mk false "domains")

let print_sharded (a, b) =
  Jsonx.to_string (Ref_digest.Sharded.digest_to_json a)
  ^ "\n" ^ Jsonx.to_string (Ref_digest.Sharded.digest_to_json b)

let sharded_agree (a, b) =
  derived_names (Shard_runner.digest_diff a b)
  = List.sort_uniq compare (List.map ref_sharded_name (Ref_digest.Sharded.digest_diff a b))

let qcheck_sharded_diff =
  QCheck.Test.make ~name:"sharded digest_diff flags what the reference flags" ~count:2000
    (QCheck.make ~print:print_sharded gen_sharded)
    sharded_agree

let qcheck_sharded_json =
  QCheck.Test.make ~name:"sharded digest_to_json = reference bytes" ~count:500
    (QCheck.make ~print:print_sharded gen_sharded)
    (fun (a, b) ->
      List.for_all
        (fun d ->
          Jsonx.to_string (Shard_runner.digest_to_json d)
          = Jsonx.to_string (Ref_digest.Sharded.digest_to_json d))
        [ a; b ])

let test_sharded_edges () =
  let a, _ = gen_sharded (Random.State.make [| 11 |]) in
  let net =
    {
      Shard_runner.nd_sent = 500;
      nd_dropped = 1;
      nd_retried = 2;
      nd_net_aborts = 0;
      nd_indoubt_max_us = 9;
    }
  in
  let repl =
    {
      Shard_runner.rd_replicas = 2;
      rd_quorum = 2;
      rd_kills = 1;
      rd_revives = 1;
      rd_promotions = 1;
      rd_fencings = 0;
      rd_stale_acks = 0;
      rd_restarts = 1;
      rd_lag_max_us = 52_000;
    }
  in
  let honest =
    {
      a with
      Shard_runner.d_violations = 0;
      d_cross_commits = 10;
      d_net = Some net;
      d_repl = Some repl;
    }
  in
  let edges =
    [
      ("net block on one side only", { honest with Shard_runner.d_net = None });
      ("repl block on one side only", { honest with Shard_runner.d_repl = None });
      ("cross zero vs non-zero", { honest with Shard_runner.d_cross_commits = 0 });
      ( "stale acks zero vs non-zero",
        { honest with Shard_runner.d_repl = Some { repl with Shard_runner.rd_stale_acks = 3 } } );
      ( "repl quorum differs",
        { honest with Shard_runner.d_repl = Some { repl with Shard_runner.rd_quorum = 3 } } );
      ("violations", { honest with Shard_runner.d_violations = 2 });
    ]
  in
  check_bool "honest pair agrees" true (Shard_runner.digest_diff honest honest = []);
  List.iter
    (fun (name, b) ->
      check_bool (name ^ ": reference flags it") true
        (Ref_digest.Sharded.digest_diff honest b <> []);
      check_bool (name ^ ": same fields") true (sharded_agree (honest, b)))
    edges

(* Every row of a replicated run on a lossy fabric lands in the report
   under its own name, with its value. *)
let test_report_carries_every_row () =
  let base =
    {
      Exp_config.default with
      Exp_config.name = "digest-report";
      seed = 5;
      duration_s = 0.3;
      workers = 4;
      reads_per_txn = 2;
      writes_per_txn = 2;
      schema = { Schema.default with Schema.tables = 2; rows_per_table = 60 };
      llts = [ { Exp_config.start_s = 0.05; duration_s = 0.15; count = 1 } ];
      gc_period = Clock.ms 5;
      sample_period_s = 0.05;
      ckpt_period_s = 0.1;
    }
  in
  let cfg =
    {
      (Shard_runner.default ~shards:2 base) with
      Shard_runner.cross_pct = 40;
      replicas = 2;
      kill_steps = [ 2_000 ];
      net = Net_fault.make ~loss:0.05 ~dup:0.1 ~max_delay:(Clock.us 200) ~seed:5 ();
    }
  in
  let res = Shard_runner.run cfg in
  let rows = Shard_runner.rows res.Shard_runner.digest in
  check_bool "net and repl blocks present" true
    (res.Shard_runner.digest.Shard_runner.d_net <> None
    && res.Shard_runner.digest.Shard_runner.d_repl <> None);
  let counters = Fault_report.gauges res.Shard_runner.report in
  List.iter
    (fun (r : Run_digest.row) ->
      check_bool ("report carries " ^ r.name) true (List.assoc_opt r.name counters = Some r.value))
    rows

let suites =
  [
    ( "digest.table",
      [
        Alcotest.test_case "runner table declares every digest field" `Quick
          test_template_has_every_field;
        Alcotest.test_case "unsharded edge pairs match the reference" `Quick test_unsharded_edges;
        Alcotest.test_case "sharded edge pairs match the reference" `Quick test_sharded_edges;
        Alcotest.test_case "report carries every sharded row" `Quick test_report_carries_every_row;
        QCheck_alcotest.to_alcotest qcheck_unsharded;
        QCheck_alcotest.to_alcotest qcheck_sharded_diff;
        QCheck_alcotest.to_alcotest qcheck_sharded_json;
      ] );
  ]
