(** vDriver — the public facade (§3.2, Figure 5).

    A standalone version manager pluggable into an MVCC engine. The
    engine keeps SIRO slots in its data pages ({!Siro}) and hands every
    displaced [v^{r,1->2}] to {!relocate}; reads that miss the in-row
    pair are served from the version-buffer layer through {!read};
    background maintenance drives {!vcutter_step}.

    All state lives in {!State.t}; this module wires vSorter, vCutter,
    the LLB and the version store together and adds the read path and
    crash/abort semantics. *)

type t = State.t

val create : ?config:State.config -> Txn_manager.t -> t
val config : t -> State.config

val governor : t -> Governor.t
(** The overload-protection ladder (disabled unless the config sets a
    hard quota). *)

val rung : t -> Governor.rung
(** Health rung currently in force. *)

val relocate :
  t -> Version.t -> lo:Timestamp.t -> hi:Timestamp.t -> now:Clock.time -> Vsorter.outcome
(** Feed one displaced in-row version, with its stamped commit interval
    [(lo, hi)], to vSorter ({!Vsorter.relocate}). Under an enabled
    governor every relocation is also a ladder observation, and at
    [Emergency] and above the caller pays for a synchronous maintenance
    pass before this returns — the backpressure that keeps a write storm
    from outrunning the cleaners. *)

type read_source =
  | From_vbuffer  (** version found in an in-memory (filling) segment *)
  | From_store_cached  (** hardened segment, resident in the cache *)
  | From_store_io  (** hardened segment, fetched from stable storage *)

val read : t -> Read_view.t -> rid:int -> (Version.t * read_source * int) option
(** Off-row lookup: find the snapshot read of [rid] for the view in the
    LLB chain. Returns the version, where it was found, and the chain
    hops taken. [None] when the record has no visible off-row version
    (the caller's in-row check should have succeeded, or the record was
    never updated). *)

val vcutter_step : t -> now:Clock.time -> max_segments:int -> Vcutter.result

val sweep : t -> now:Clock.time -> Vsorter.sweep_result
(** vBuffer maintenance: segment-granularity 2nd prune plus
    flush-on-pressure (see {!Vsorter.sweep}). *)

val maintain : t -> now:Clock.time -> Vsorter.sweep_result * Vcutter.result
(** One full background pass: sweep the buffer, then run vCutter over
    the store (with the governor's per-rung segment budget). While the
    hard quota is exceeded the pass loops — observing the ladder one
    adjacent step at a time and, once [Shedding] is reached, evicting
    the oldest read views past the grace period — until the space fits
    or nothing sheddable remains. The final {!space_bytes} reading is
    recorded as the post-maintenance checkpoint the space-quota
    invariant audits. *)

val flush_all : t -> now:Clock.time -> Vsorter.sweep_result

val abort_cleanup : t -> unit
(** Transaction abort leaves version segments and the LLB unaffected
    (§3.5, Figure 10a) — provided for symmetry and assertion hooks. *)

val pins_dead_interval : t -> tid:Timestamp.t -> bool
(** Zombie-pinning test for the watchdog's shed rung: does the live
    transaction whose begin timestamp is [tid] pin otherwise-dead
    versions? True when some sealed or hardened segment's descriptor
    interval is dead (Definition 3.3) over the live table with [tid]
    removed, but not with [tid] present. Read-only. *)

val crash_restart : t -> unit
(** Crash recovery: every off-row version predates the restart and no
    new transaction can request it, so vBuffer, LLB and the version
    store are emptied wholesale (§3.5, Figure 10b). *)

(** {1 Observability} *)

val space_bytes : t -> int

val max_chain_length : t -> int
(** Longest live off-row chain across all records. *)

val chain_length : t -> rid:int -> int
(** Live off-row versions of one record (0 if it has no chain). *)

val gc_backend_name : t -> string
(** Name of the installed GC backend (["vcutter"] for the built-in
    path). Recorded in run digests and fault-report gauges. *)

val chain_length_histogram : t -> Histogram.t
val stats : t -> Prune_stats.t
val store : t -> Version_store.t
val zone_refreshes : t -> int
