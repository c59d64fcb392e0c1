(* The Sim-vs-Domains digest comparisons as written before the counter
   table: the unsharded digest as a 27-field record with a hand-written
   diff and printer, and the sharded digest's hand-written JSON and
   diff over {!Shard_runner.digest}. They are the oracles of the qcheck
   properties in test_digest.ml and live only here. *)

module Unsharded = struct
  type t = {
    mode : string;
    domains : int;
    gc_backend : string;
    commits : int;
    conflicts : int;
    llt_reads : int;
    retries : int;
    give_ups : int;
    sheds : int;
    wal_errors : int;
    faults_injected : int;
    invariant_violations : int;
    peak_space : int;
    final_space : int;
    peak_chain : int;
    prune_relocated : int;
    prune_in_flight : int;
    prune_completeness : float;
    max_holes : int;
    holey_chains : int;
    avg_throughput : float;
    latency_p50_us : int;
    latency_p99_us : int;
    chain_p50 : int;
    chain_p99 : int;
    lag_armed : bool;
    max_reclamation_lag_us : int;
  }

  let diff a b =
    (* Per-field closeness for the statistical counters, [(rel, abs)]:
       [a] and [b] agree when [|a - b| <= max abs (rel * max |a| |b|)].
       Calibrated against the differential qcheck matrix
       (test_differential): real interleaving shifts conflict/retry counts
       a lot and the volume/space counters a little; a lost publication
       shifts commits by a worker's whole output, far past any of these. *)
    let commits = (0.20, 400)
    and conflicts = (2.0, 150)
    and llt_reads = (0.25, 400)
    and retries = (2.0, 60)
    and give_ups = (2.0, 25)
    and sheds = (2.0, 25)
    and wal_errors = (2.0, 80)
    (* Peak space is the spikiest field: under a space-storm plan one
       extra LLT-pinned segment riding through a burst doubles the
       transient peak, so only a >2x divergence is flagged. *)
    and space = (1.0, 65536)
    and chain = (1.0, 12)
    and latency = (0.75, 60)
    and lag = (2.0, 100_000) in
    let out = ref [] in
    let say fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
    let approx name (rel, abs_) v =
      let x = v a and y = v b in
      let slack = max abs_ (int_of_float (rel *. float_of_int (max (abs x) (abs y)))) in
      if abs (x - y) > slack then
        say "%s: %s=%d vs %s=%d (tol rel=%.2f abs=%d)" name a.mode x b.mode y rel abs_
    in
    (* Safety facts first: each side must be clean on its own. *)
    List.iter
      (fun d ->
        if d.invariant_violations > 0 then
          say "%s mode: %d invariant violations" d.mode d.invariant_violations;
        if d.max_holes > 1 then
          say "%s mode: chain with %d holes (SIRO allows at most 1)" d.mode d.max_holes;
        if d.prune_in_flight < 0 then
          say "%s mode: prune conservation violated (in_flight=%d)" d.mode d.prune_in_flight)
      [ a; b ];
    (* The backend identity is part of the experiment, not a statistic:
       any disagreement is a mismatch outright. *)
    if a.gc_backend <> b.gc_backend then
      say "gc_backend: %s=%s vs %s=%s" a.mode a.gc_backend b.mode b.gc_backend;
    approx "commits" commits (fun d -> d.commits);
    approx "conflicts" conflicts (fun d -> d.conflicts);
    approx "llt_reads" llt_reads (fun d -> d.llt_reads);
    approx "retries" retries (fun d -> d.retries);
    approx "give_ups" give_ups (fun d -> d.give_ups);
    approx "sheds" sheds (fun d -> d.sheds);
    approx "wal_errors" wal_errors (fun d -> d.wal_errors);
    approx "peak_space" space (fun d -> d.peak_space);
    approx "final_space" space (fun d -> d.final_space);
    approx "peak_chain" chain (fun d -> d.peak_chain);
    approx "chain_p50" chain (fun d -> d.chain_p50);
    approx "chain_p99" chain (fun d -> d.chain_p99);
    approx "latency_p50_us" latency (fun d -> d.latency_p50_us);
    approx "latency_p99_us" latency (fun d -> d.latency_p99_us);
    (* Relocation volume tracks maintenance work; completeness is the
       prune-soundness headline. Space tolerance fits both scales. *)
    approx "prune_relocated" space (fun d -> d.prune_relocated);
    if Float.abs (a.prune_completeness -. b.prune_completeness) > 0.25 then
      say "prune_completeness: %s=%.3f vs %s=%.3f" a.mode a.prune_completeness b.mode
        b.prune_completeness;
    if a.lag_armed && b.lag_armed then
      approx "max_reclamation_lag_us" lag (fun d -> d.max_reclamation_lag_us);
    List.rev !out

  let pp fmt d =
    Format.fprintf fmt
      "@[<v>[%s x%d gc=%s] commits=%d conflicts=%d llt_reads=%d sheds=%d violations=%d@ \
       space peak=%d final=%d chain peak=%d p50=%d p99=%d holes max=%d chains=%d@ \
       prune relocated=%d in_flight=%d completeness=%.3f lat p50=%dus p99=%dus lag=%dus@]"
      d.mode d.domains d.gc_backend d.commits d.conflicts d.llt_reads d.sheds
      d.invariant_violations
      d.peak_space d.final_space d.peak_chain d.chain_p50 d.chain_p99 d.max_holes
      d.holey_chains d.prune_relocated d.prune_in_flight d.prune_completeness d.latency_p50_us
      d.latency_p99_us d.max_reclamation_lag_us
end

module Sharded = struct
  open Shard_runner

  let digest_to_json d =
    Jsonx.Obj
      ([
         ("mode", Jsonx.Str d.Shard_runner.d_mode);
         ("shards", Jsonx.Int d.d_shards);
         ("commits", Jsonx.Int d.d_commits);
         ("conflicts", Jsonx.Int d.d_conflicts);
         ("cross_commits", Jsonx.Int d.d_cross_commits);
         ("violations", Jsonx.Int d.d_violations);
         ("peak_space", Jsonx.Int d.d_peak_space);
         ("throughput", Jsonx.Float d.d_throughput);
       ]
      @
      (* The net block appears only when a fault config was active, so
         no-fault digests stay byte-identical to the pre-net layer. *)
      (match d.d_net with
      | None -> []
      | Some n ->
          [
            ( "net",
              Jsonx.Obj
                [
                  ("sent", Jsonx.Int n.nd_sent);
                  ("dropped", Jsonx.Int n.nd_dropped);
                  ("retried", Jsonx.Int n.nd_retried);
                  ("net_aborts", Jsonx.Int n.nd_net_aborts);
                  ("indoubt_max_us", Jsonx.Int n.nd_indoubt_max_us);
                ] );
          ])
      @
      (* Likewise the repl block: [--replicas 0] digests keep the exact
         bytes of the unreplicated driver. *)
      match d.d_repl with
      | None -> []
      | Some r ->
          [
            ( "repl",
              Jsonx.Obj
                [
                  ("replicas", Jsonx.Int r.rd_replicas);
                  ("quorum", Jsonx.Int r.rd_quorum);
                  ("kills", Jsonx.Int r.rd_kills);
                  ("revives", Jsonx.Int r.rd_revives);
                  ("promotions", Jsonx.Int r.rd_promotions);
                  ("fencings", Jsonx.Int r.rd_fencings);
                  ("stale_acks", Jsonx.Int r.rd_stale_acks);
                  ("restarts", Jsonx.Int r.rd_restarts);
                  ("failover_lag_max_us", Jsonx.Int r.rd_lag_max_us);
                ] );
          ])

  (* Sim vs Domains agree on safety exactly and on load statistically:
     Domains interleaves for real, so counts drift with scheduling. Slack
     follows Run_digest: an absolute floor for small-run noise (a run
     short enough that no sampler fired can legitimately report a fully
     pruned peak of zero) under a relative band for real divergence. *)
  let digest_diff a b =
    let acc = ref [] in
    let say fmt = Format.kasprintf (fun s -> acc := s :: !acc) fmt in
    if a.d_shards <> b.d_shards then say "shards: %d vs %d" a.d_shards b.d_shards;
    if a.d_violations <> 0 || b.d_violations <> 0 then
      say "violations: %d (%s) vs %d (%s)" a.d_violations a.d_mode b.d_violations b.d_mode;
    let close ~rel ~abs x y =
      let slack = max abs (int_of_float (rel *. float_of_int (max x y))) in
      Stdlib.abs (x - y) <= slack
    in
    if not (close ~rel:0.5 ~abs:400 a.d_commits b.d_commits) then
      say "commits: %d vs %d (beyond 50%% + 400)" a.d_commits b.d_commits;
    if not (close ~rel:1.0 ~abs:65536 a.d_peak_space b.d_peak_space) then
      say "peak_space: %d vs %d (beyond 2x + 64KiB)" a.d_peak_space b.d_peak_space;
    (* Cross-shard traffic must exist in both modes or neither. *)
    if (a.d_cross_commits = 0) <> (b.d_cross_commits = 0) then
      say "cross_commits: %d vs %d" a.d_cross_commits b.d_cross_commits;
    (* Net blocks must agree on presence; volume drifts with real
       interleaving, so only gross disagreement (an order of magnitude
       beyond a floor) counts. *)
    (match (a.d_net, b.d_net) with
    | None, None -> ()
    | Some _, None | None, Some _ -> say "net digest present in one mode only"
    | Some na, Some nb ->
        if not (close ~rel:4.0 ~abs:4096 na.nd_sent nb.nd_sent) then
          say "net sent: %d vs %d (beyond 5x + 4096)" na.nd_sent nb.nd_sent);
    (* The replication layer must be configured identically in both modes;
       kill/promotion volumes come from the same seeded plan but success
       depends on interleaving-sensitive budget refusals, so only gross
       disagreement counts. *)
    (match (a.d_repl, b.d_repl) with
    | None, None -> ()
    | Some _, None | None, Some _ -> say "repl digest present in one mode only"
    | Some ra, Some rb ->
        if ra.rd_replicas <> rb.rd_replicas || ra.rd_quorum <> rb.rd_quorum then
          say "repl config: %d/%d vs %d/%d" ra.rd_replicas ra.rd_quorum rb.rd_replicas
            rb.rd_quorum;
        if not (close ~rel:1.0 ~abs:8 ra.rd_kills rb.rd_kills) then
          say "repl kills: %d vs %d (beyond 2x + 8)" ra.rd_kills rb.rd_kills;
        if not (close ~rel:1.0 ~abs:8 ra.rd_promotions rb.rd_promotions) then
          say "repl promotions: %d vs %d (beyond 2x + 8)" ra.rd_promotions rb.rd_promotions;
        (* Fabricated client acks are a sabotage artifact: both modes run
           the same sabotage knob, so presence must agree. *)
        if (ra.rd_stale_acks = 0) <> (rb.rd_stale_acks = 0) then
          say "repl stale_acks: %d vs %d" ra.rd_stale_acks rb.rd_stale_acks);
    List.rev !acc
end
