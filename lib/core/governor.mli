(** Version-space governor: quotas, backpressure, graceful degradation.

    The paper bounds LLT damage by pruning harder; this module bounds it
    by {e refusing to grow}. A configurable byte quota over the whole
    version space ([vBuffer + hardened store]) drives a four-rung health
    ladder

    {v Normal -> Pressured -> Emergency -> Shedding v}

    with hysteresis so the state machine cannot flap. Each rung arms a
    concrete mechanism (wired in {!Driver} and {!Runner}):

    - {b Pressured} — maintenance runs more often (the runner shrinks
      the GC period by {!gc_scale}) and vCutter's per-pass segment
      budget rises to [pressured_max_segments];
    - {b Emergency} — relocations pay for cleaning synchronously
      (backpressure on the write path, like InnoDB's sync flush point);
    - {b Shedding} — the snapshot-too-old policy: the oldest read views
      older than [shed_grace] are evicted and their owners aborted,
      which collapses the dead-zone boundary so vCutter can reclaim the
      segments they pinned.

    Transitions are always between adjacent rungs and are logged with
    the space reading that caused them; {!check_ladder} replays the log
    against the thresholds, which is how the fault harness proves the
    ladder honest. [quota_ignore_sabotage] makes the governor ignore its
    quota entirely — chaos campaigns use it to prove the space invariant
    has teeth, mirroring [zone_widen_sabotage]. *)

type rung = Normal | Pressured | Emergency | Shedding

val rung_name : rung -> string
val rung_index : rung -> int
(** [Normal] is 0, [Shedding] is 3. *)

val rung_of_index : int -> rung
val pp_rung : Format.formatter -> rung -> unit

type config = {
  hard_quota_bytes : int;
      (** ceiling on [Driver.space_bytes]; [0] disables the governor
          entirely (the default — ungoverned runs are bit-identical to
          pre-governor builds) *)
  pressured_frac : float;  (** enter Pressured at [frac * quota] *)
  emergency_frac : float;  (** enter Emergency at [frac * quota] *)
  shedding_frac : float;  (** enter Shedding at [frac * quota] *)
  hysteresis_frac : float;
      (** de-escalate from rung [r] only once space falls below
          [enter_threshold r * (1 - hysteresis_frac)] *)
  shed_grace : Clock.time;
      (** snapshot-too-old grace: only transactions older than this are
          eviction candidates *)
  shed_batch : int;  (** victims evicted per shedding round *)
  normal_max_segments : int;  (** vCutter per-pass budget at Normal *)
  pressured_max_segments : int;  (** budget at Pressured and above *)
  pressured_gc_scale : float;
      (** GC-period multiplier at Pressured (< 1 shortens the cadence) *)
  emergency_gc_scale : float;  (** multiplier at Emergency and Shedding *)
  quota_ignore_sabotage : bool;
      (** chaos-testing only: keep the quota configured but never act on
          it. The space invariant still checks the configured quota, so
          a campaign under load must flag the breach. *)
}

val default_config : config
(** Disabled ([hard_quota_bytes = 0]); thresholds 55% / 75% / 90%,
    8% hysteresis, 100 ms grace, batch 4, budgets 64/256, GC scales
    0.25 / 0.1. *)

val governed : quota_bytes:int -> config
(** [default_config] with the quota set — the one-liner CLIs use. *)

type transition = {
  at : Clock.time;
  from_rung : rung;
  to_rung : rung;
  space_bytes : int;  (** the reading that caused the transition *)
}

type t

val create : ?config:config -> unit -> t
val config : t -> config
val enabled : t -> bool
(** A nonzero quota and no sabotage. *)

val hard_quota : t -> int
val rung : t -> rung

val enter_threshold : config -> rung -> int
(** Escalation threshold of a rung ([0] for [Normal]). *)

val observe : t -> now:Clock.time -> space_bytes:int -> rung
(** Feed one space reading: the ladder moves {e at most one rung} toward
    where the reading points (escalate when the next rung's threshold is
    reached, de-escalate under the current rung's hysteresis floor),
    logging any transition. Returns the rung now in force. Disabled or
    sabotaged governors always answer [Normal] and log nothing. *)

val max_segments : t -> int
(** vCutter budget for the current rung. *)

val gc_scale : t -> float
(** Maintenance-period multiplier for the current rung (1.0 at Normal). *)

val emergency_active : t -> bool
(** Emergency or Shedding: relocations must clean synchronously. *)

val shed_active : t -> bool

val note_shed : t -> int -> unit
(** Count victims evicted by the snapshot-too-old policy. *)

val sheds : t -> int
val note_assist : t -> unit
(** Count one synchronous emergency-maintenance pass on the relocate
    path. *)

val assists : t -> int

val note_headroom : t -> now:Clock.time -> space_bytes:int -> unit
(** Emit the version-space counter event onto the trace's governor
    track. No-op when disabled. *)

val transitions : t -> transition list
(** Oldest first. *)

val dwell_times : t -> now:Clock.time -> (rung * Clock.time) list
(** Cumulative simulated time spent in each rung, the current residence
    counted up to [now]. All four rungs, ladder order. *)

val check_ladder : t -> string list
(** Replay the transition log against the thresholds: every transition
    must be adjacent, every escalation must have seen space at or above
    the target rung's threshold, every de-escalation must have seen
    space below the source rung's hysteresis floor. Returns violation
    descriptions (empty = honest ladder). *)

val pp_transition : Format.formatter -> transition -> unit
val pp_summary : Format.formatter -> now:Clock.time -> t -> unit
(** One-paragraph report: rung, sheds, assists, transition log, dwell
    times. *)
