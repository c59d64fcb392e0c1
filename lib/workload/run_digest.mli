(** Mode-independent summary of a run, for sim-vs-domains differential
    testing.

    A digest condenses one {!Runner.result} into the quantities both
    execution modes must agree on: exact safety facts (invariant
    violations, the SIRO 0/1-hole chain shape, prune-stats
    conservation) and statistical aggregates (commits, space peak,
    latency and chain percentiles, throughput) that are compared under
    per-field tolerances — Domains mode interleaves for real, so counts
    shifted by scheduling noise are expected; counts shifted by a lost
    update are not.

    What agreement does and does not prove (DESIGN §4f): a matching
    digest says the two modes computed statistically indistinguishable
    histories and neither violated a safety invariant; it does not say
    the histories are identical, and it cannot certify the absence of
    races the workload never provoked. *)

type t = {
  mode : string;  (** "sim" or "domains" *)
  domains : int;
  gc_backend : string;
      (** installed GC backend name ("vcutter" un-hooked); part of the
          experiment identity, compared exactly *)
  commits : int;
  conflicts : int;
  llt_reads : int;
  retries : int;
  give_ups : int;
  sheds : int;
  wal_errors : int;
  faults_injected : int;
  invariant_violations : int;  (** exact; must be 0 in both modes *)
  peak_space : int;
  final_space : int;
  peak_chain : int;
  prune_relocated : int;
  prune_in_flight : int;
      (** conservation-law residue; negative means counters were lost *)
  prune_completeness : float;  (** pruned / settled, 1.0 when nothing settled *)
  max_holes : int;  (** largest hole count in any live chain; SIRO legal <= 1 *)
  holey_chains : int;
  avg_throughput : float;  (** commits/s over the whole run *)
  latency_p50_us : int;
  latency_p99_us : int;
  chain_p50 : int;  (** from the final chain-length CDF *)
  chain_p99 : int;
  lag_armed : bool;
  max_reclamation_lag_us : int;  (** compared only when armed in both *)
}

val of_result : mode:string -> domains:int -> Exp_config.t -> Runner.result -> t

val diff : t -> t -> string list
(** Human-readable mismatches, empty when the digests agree. Safety
    fields (violations, hole shape, conservation) are exact — any
    nonzero violation count or >1-hole chain on either side is itself a
    mismatch; statistical fields use per-field tolerances calibrated on
    the differential qcheck matrix: wide enough that honest scheduling
    noise between the modes never trips them, tight enough that losing
    any worker's counters always does. *)

val pp : Format.formatter -> t -> unit
