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

let pctl h p = if Histogram.total h = 0 then 0 else Histogram.percentile h p

(* Percentile over the final chain-length CDF: smallest length covering
   the fraction. *)
let cdf_pctl cdf p =
  let rec find = function
    | [] -> 0
    | (v, f) :: rest -> if f >= p then v else find rest
  in
  find cdf

let of_result ~mode ~domains (cfg : Exp_config.t) (r : Runner.result) =
  let max_holes, holey_chains =
    match r.Runner.driver with
    | None -> (0, 0)
    | Some d ->
        let worst = ref 0 and holey = ref 0 in
        Llb.iter d.State.llb (fun chain ->
            let h = Chain.holes chain in
            if h > !worst then worst := h;
            if h > 0 then incr holey);
        (!worst, !holey)
  in
  let relocated, in_flight, completeness =
    match r.Runner.driver with
    | None -> (0, 0, 1.)
    | Some d ->
        let s = Driver.stats d in
        let pruned = Prune_stats.prune1_total s + Prune_stats.prune2_total s in
        let settled = pruned + Prune_stats.stored_total s in
        ( Prune_stats.relocated s,
          Prune_stats.in_flight s,
          if settled = 0 then 1. else float_of_int pruned /. float_of_int settled )
  in
  let faults_injected =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (Fault_report.faults_injected r.Runner.faults)
  in
  {
    mode;
    domains;
    gc_backend =
      (match r.Runner.driver with Some d -> Driver.gc_backend_name d | None -> "vcutter");
    commits = r.Runner.commits;
    conflicts = r.Runner.conflicts;
    llt_reads = r.Runner.llt_reads;
    retries = r.Runner.retries;
    give_ups = r.Runner.give_ups;
    sheds = r.Runner.sheds;
    wal_errors = r.Runner.wal_errors;
    faults_injected;
    invariant_violations = Fault_report.violation_count r.Runner.faults;
    peak_space = Runner.peak_space r;
    final_space = Runner.final_space r;
    peak_chain = Runner.peak_chain r;
    prune_relocated = relocated;
    prune_in_flight = in_flight;
    prune_completeness = completeness;
    max_holes;
    holey_chains;
    avg_throughput =
      (if cfg.Exp_config.duration_s > 0. then
         float_of_int r.Runner.commits /. cfg.Exp_config.duration_s
       else 0.);
    latency_p50_us = pctl r.Runner.latency_us 0.5;
    latency_p99_us = pctl r.Runner.latency_us 0.99;
    chain_p50 = cdf_pctl r.Runner.chain_cdf 0.5;
    chain_p99 = cdf_pctl r.Runner.chain_cdf 0.99;
    lag_armed = Histogram.total r.Runner.reclamation_lag_us > 0 || r.Runner.max_reclamation_lag > 0;
    max_reclamation_lag_us = r.Runner.max_reclamation_lag / 1_000;
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
