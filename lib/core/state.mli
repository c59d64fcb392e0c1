(** Shared mutable state of a vDriver instance.

    vSorter and vCutter are separate modules operating over this record;
    [Driver] is the public facade. The zone set and the view snapshots
    are refreshed together, periodically (§3.3's accuracy/performance
    trade-off): staleness is conservative for pruning. *)

type config = {
  segment_bytes : int;  (** version segment size (Figure 19 knob) *)
  vbuffer_bytes : int;  (** vBuffer budget; 8 MiB in the paper's runs *)
  classifier : Classifier.t;
  zone_refresh_period : Clock.time;  (** how often [Z_T] is rebuilt *)
  store_cache_segments : int;  (** hardened segments kept hot for reads *)
  classification : [ `Three_way | `Single_class ];
      (** ablation: [`Single_class] stores every version in one cluster,
          so LLT-pinned versions suspend everyone's cleaning *)
  pruning : [ `Dead_zones | `Oldest_active ];
      (** ablation: [`Oldest_active] replaces Theorem 3.5 with the
          age-old criterion (reclaim only below the oldest live
          transaction) *)
  zone_widen_sabotage : int;
      (** chaos-testing only: widen every dead zone by this many
          timestamp units before the containment test, making pruning
          deliberately unsound. 0 (the default, and the only sound
          value) in real runs; the fault harness uses nonzero values to
          prove its invariant checker catches a broken rule. *)
  governor : Governor.config;
      (** version-space overload protection (quota, ladder thresholds,
          snapshot-too-old policy); disabled by default *)
  durable_wal : bool;
      (** switch the engine's WAL to typed-record durable mode and log
          every pipeline event (relocations, hardens, drops, cuts,
          checkpoints) so a crash can be recovered by replay. Off by
          default — non-durable runs stay bit-identical to the seed. *)
  recovery_skip_tail_check : bool;
      (** sabotage knob: make restart recovery replay the log tail
          without CRC verification. A torn or corrupt tail then gets
          replayed as if durable — the post-recovery invariants must
          catch the divergence. Never enable outside the harness. *)
  recovery_discard_past_checkpoint : bool;
      (** sabotage knob: an unsharded durable checkpoint recycles the
          log through its own [Ckpt_end] instead of below the previous
          checkpoint, so the log keeps no checkpoint to recover from —
          the [recovery-base] invariant must catch it. Never enable
          outside the harness. *)
  clog_over_truncate_sabotage : bool;
      (** sabotage knob: every move of the transaction manager's
          commit-log freeze horizon goes one log page too far
          ({!Txn_manager.set_clog_over_truncate}) — the [clog-horizon]
          invariant must catch it. Never enable outside the harness. *)
}

val default_config : config

type prune_origin = [ `Prune1 | `Prune2 | `Cut ]
(** Which stage discarded a version: relocation-time prune, sealed
    segment drop, or vCutter's hardened-segment cut. *)

type gc_step = {
  gs_segments_dropped : int;
  gs_versions_pruned : int;
  gs_segments_flushed : int;
  gs_versions_stored : int;
  gs_segments_cut : int;
  gs_versions_cut : int;
  gs_bytes_reclaimed : int;
  gs_segments_scanned : int;
}
(** Flat counters for one GC maintenance pass. State sits below
    {!Vsorter}/{!Vcutter} in the module order, so the backend hook
    reports this mode-independent record and {!Driver.maintain}
    converts it back into the pipeline's native result types. *)

type gc_hook = {
  gh_name : string;  (** backend name, e.g. ["vcutter"], ["range"], ["bounded"] *)
  gh_id : int;  (** stable numeric id for deterministic gauges *)
  gh_step : now:Clock.time -> budget:int -> gc_step;
      (** one full maintenance pass (buffer + store) at the governor's
          per-rung segment [budget] *)
  gh_frontier : unit -> Timestamp.t;
      (** the backend's reclamation frontier: the oldest timestamp it
          still considers potentially live *)
  gh_check : unit -> string list;
      (** backend-relative online invariant (vCutter: cut completeness
          within budget; BBF+: the resident dead-version bound);
          nonempty means a violation *)
  gh_gauges : unit -> (string * int) list;
      (** backend-specific observability counters for benches/reports *)
}
(** A pluggable GC backend (DESIGN §4h). When installed it replaces the
    sweep-then-cut pair inside {!Driver.maintain} wholesale; the default
    [None] keeps the seed's vSorter/vCutter path, bit-identical. *)

type t = {
  config : config;
  txns : Txn_manager.t;
  llb : Llb.t;
  store : Version_store.t;
  store_cache : Buffer_pool.t;
  stats : Prune_stats.t;
  mutable zones : Zone_set.t;
  mutable zone_views : Read_view.t list;
  mutable llt_views : Read_view.t list;
  mutable last_refresh : Clock.time;
  mutable delta_llt_effective : Clock.time;
  open_segments : Segment.t option array;  (** one per {!Vclass.t} *)
  sealed : Segment.t Vec.t;  (** full segments aging in vBuffer, oldest first *)
  seg_index : (int, Segment.t) Hashtbl.t;  (** live segments by id *)
  mutable next_seg_id : int;
  mutable prune_audit :
    (now:Clock.time -> origin:prune_origin -> lo:Timestamp.t -> hi:Timestamp.t -> unit) option;
      (** online safety oracle: called with the commit-time visibility
          interval of {e every} version the instance discards, at the
          moment of the discard. The fault harness installs a checker
          that replays Definition 3.3 against the live table. *)
  governor : Governor.t;  (** overload-protection ladder over {!space_bytes} *)
  mutable shed_hook : (tid:Timestamp.t -> now:Clock.time -> bool) option;
      (** installed by the workload runner: abort the transaction with
          this begin timestamp {e through the engine} (rolling back its
          writes) and return whether a victim was actually killed. When
          absent the driver falls back to aborting directly in the
          transaction manager, which is only safe for read-only
          victims. *)
  mutable post_maintain_space : (Clock.time * int) option;
      (** time and {!space_bytes} reading at the end of the most recent
          governed maintenance pass — the checkpoint the space-quota
          invariant audits. Cleared by a crash-restart. *)
  mutable wal : Wal.t option;
      (** the engine's log, installed when [durable_wal] is set so the
          pipeline stages ({!Vsorter}, {!Vcutter}) can write their
          typed records and the invariant checker can rescan them. *)
  mutable inrow_probe : (unit -> (int * int * Timestamp.t) list) option;
      (** installed by the engine: snapshot of the current in-row image
          as [(rid, payload, vs)], sorted by rid — what the
          post-recovery durability invariant compares against the log
          oracle without the fault library depending on the engines. *)
  mutable watchdog : Watchdog.t option;
      (** installed by the workload runner when the liveness watchdog is
          armed: {!Vsorter.sweep}, {!Vcutter.step} and
          {!Driver.maintain} post their progress beats here, and the
          invariant sweep replays its ladder honesty. [None] (the
          default) keeps every pipeline path beat-free and runs
          bit-identical to the seed. *)
  mutable shard_id : int;
      (** which keyspace shard this pipeline instance serves (0 = the
          unsharded default — one global pipeline, as in the seed). *)
  mutable zone_source : (unit -> Zone_set.t) option;
      (** installed by the shard group: {!refresh_zones} pulls the zone
          snapshot from the global epoch broadcast instead of reading
          the (shared) live table directly. Broadcast staleness is
          conservative — it can only delay pruning, never admit an
          unsound prune — which is what keeps Theorem 3.5 global while
          prune decisions stay shard-local. *)
  mutable shared_mgr : bool;
      (** true when this instance shares its transaction manager with
          other shards: restart recovery must then {e merge} its
          recovered outcomes into the manager instead of resetting it
          (the group resets once, before the per-shard restarts). *)
  mutable indoubt_resolver : (unit -> tid:int -> coord:int -> int option) option;
      (** installed by the shard group: each call makes a lookup
          that answers 2PC in-doubt transactions from the coordinator
          shards' durable logs — [Some cts] iff a commit decision
          survived there (see {!Wal_recovery.expect}). *)
  mutable ckpt_indoubt : (unit -> (int * int) list * (int * int) list) option;
      (** installed by the shard group: snapshot of
          [(prepared, decisions)] 2PC state to persist in this shard's
          checkpoints (see {!Checkpoint.t}). *)
  mutable gc_backend : gc_hook option;
      (** installed by [Gc_backend.install]: routes every maintenance
          pass through a pluggable collector instead of the built-in
          sweep-then-cut pair. [None] (the default) runs the seed path
          byte-identically. *)
}

val create : ?config:config -> Txn_manager.t -> t

val gc_backend_name : t -> string
(** Name of the installed GC backend; ["vcutter"] when none is
    installed (the built-in path {e is} the vCutter design). *)

val interval_dead : t -> lo:Timestamp.t -> hi:Timestamp.t -> bool
(** The configured pruning predicate over the current zone snapshot
    ([`Dead_zones] containment or the [`Oldest_active] horizon),
    including any [zone_widen_sabotage]. Shared by vSorter and vCutter
    so the policy — and the sabotage — has exactly one definition. *)

val audit_prune :
  t -> now:Clock.time -> origin:prune_origin -> lo:Timestamp.t -> hi:Timestamp.t -> unit
(** Notify the installed {!field-prune_audit} hook, if any. *)

val refresh_zones : t -> now:Clock.time -> unit
(** Rebuild [zones], [zone_views] and [llt_views] from the live table. *)

val maybe_refresh : t -> now:Clock.time -> unit
(** Refresh if [zone_refresh_period] has elapsed. *)

val log_wal : t -> now:Clock.time -> Wal_record.payload -> unit
(** Append a typed record to the installed WAL, if durable. Dropped
    appends (fail-point) are already counted conservatively by
    {!Wal.log}; pipeline callers fire and forget. *)

val fresh_segment : t -> cls:Vclass.t -> now:Clock.time -> Segment.t
(** Allocate and index a new filling segment. *)

val drop_segment : t -> Segment.t -> unit
(** Remove a segment from the id index (after a cut or an all-dead
    flush). *)

val find_segment : t -> int -> Segment.t option

val buffered_bytes : t -> int
(** Open plus sealed segments — total vBuffer residency, compared
    against the [vbuffer_bytes] budget. *)

val pop_oldest_sealed : t -> Segment.t option
(** Remove and return the oldest sealed segment (flush order). *)

val space_bytes : t -> int
(** vBuffer residency plus hardened store — the version-space overhead
    the Figure 13 space curves report. *)
