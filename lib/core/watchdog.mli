(** Liveness watchdog for the vDriver cleaning pipeline (DESIGN §4e).

    The paper's promise is that dead versions are reclaimed regardless
    of LLT behaviour — but a vCutter that silently stalls, a vSorter
    stuck in the collab spin, or a zombie LLT pinning an otherwise-dead
    zone would all break it without ever tripping a safety invariant.
    The watchdog turns that into a monitored {e bounded-lag} property:

    - every cleaning loop ([vsorter], [vcutter], the governed
      maintenance loop, the runner's background cleaner, the
      checkpointer) posts a {b monotone progress counter} via {!beat};
      a source whose counter has not advanced within [stall_timeout]
      of simulated time is {e stalled};
    - lease-expired transactions (see {!Lease}) that stopped making
      progress are {e zombies};
    - any stall or zombie drives a logged four-rung escalation ladder,
      mirroring {!Governor}'s design: {b Nudge} (run a synchronous
      maintenance pass), {b Restart} (revive the stalled cleaner),
      {b Sync_reclaim} (emergency flush + reclaim), {b Shed} (cancel
      zombie transactions cooperatively, through the workload's
      forced-abort path). The ladder is cumulative — rung r runs every
      mechanism at or below r on every poll while unhealthy — and
      de-escalates one rung per healthy poll.

    Everything is driven by the simulated clock through {!poll}; the
    watchdog owns no process and draws no randomness, so an armed run
    is still a pure function of the seed. With [enabled = false] the
    ladder never moves and no action runs, but stalls are still
    observed — that is the [no-watchdog] sabotage row the
    [reclamation-lag] invariant must catch. *)

type rung = Healthy | Nudge | Restart | Sync_reclaim | Shed

type config = {
  enabled : bool;  (** [false]: observe, log nothing, act never *)
  check_period : Clock.time;  (** cadence of the owning poll process *)
  stall_timeout : Clock.time;  (** no-progress deadline per source *)
  escalation_cooldown : Clock.time;
      (** minimum dwell on a rung before climbing to the next *)
  shed_batch : int;  (** max zombies cancelled per poll at {!Shed} *)
}

val default_config : config
(** enabled, 5 ms checks, 25 ms stall timeout, 10 ms cooldown, batch 4. *)

val lag_bound : config -> gc_period:Clock.time -> Clock.time
(** The reclamation-lag bound [L] this configuration guarantees: any
    version (segment) dead at time [t] is reclaimed by [t + L] while
    the watchdog is enabled. Computed as stall detection
    ([stall_timeout + check_period]) plus the full three-step climb to
    the top rung ([3 * (escalation_cooldown + check_period)]) plus the
    cleaner revival taking effect (twice the larger of [check_period]
    and the maintenance period) plus the lag monitor's observation
    granularity ([4 * check_period]). The [reclamation-lag] invariant
    asserts exactly this bound online. *)

type actions = {
  nudge : now:Clock.time -> unit;
      (** run one synchronous maintenance pass on the watchdog's own
          dime (treats the symptom while the cleaner is down) *)
  restart_cleaners : now:Clock.time -> unit;
      (** clear the stall state so the background cleaner resumes at
          its next wakeup (cures the root cause) *)
  sync_reclaim : now:Clock.time -> unit;
      (** emergency synchronous reclaim: flush everything buffered and
          maintain until reclaimable space is gone *)
  shed_zombies : max:int -> now:Clock.time -> int;
      (** cancel up to [max] zombie transactions through the workload's
          cooperative forced-abort path; returns the number actually
          cancelled *)
  zombie_count : now:Clock.time -> int;
      (** lease-expired transactions right now (the health signal) *)
}

type t

val create : ?config:config -> unit -> t
(** Validates the configuration ([check_period], [stall_timeout] and
    [shed_batch] positive, cooldown non-negative); raises
    [Invalid_argument] otherwise. *)

val config : t -> config
val enabled : t -> bool
val rung : t -> rung

val register : ?watch:bool -> t -> string -> now:Clock.time -> unit
(** Declare a progress source. Idempotent. A registered source is
    monitored from [now] on, even if it never beats. [~watch:false]
    records the monotone counter but exempts the source from stall
    detection — for legitimately slow-cadence loops (the checkpointer
    ticks in seconds, far past any sane [stall_timeout]). *)

val beat : t -> string -> now:Clock.time -> unit
(** Post one unit of progress for a source: its monotone pass counter
    advances and its deadline resets to [now + stall_timeout].
    Auto-registers unknown sources. *)

val progress : t -> string -> int
(** The source's monotone pass counter (0 if unknown). *)

val stalled_sources : t -> now:Clock.time -> string list
(** Sources whose counter has not advanced within [stall_timeout]. *)

val poll : t -> now:Clock.time -> actions:actions -> unit
(** One watchdog tick: take the health verdict (stalled sources +
    zombie count), move the ladder at most one adjacent rung (up after
    the cooldown dwell while unhealthy, down one per healthy poll), and
    run the cumulative actions for the current rung. With
    [enabled = false] only the verdict and {!max_stall_observed} are
    updated. *)

val escalations : t -> int
val nudges : t -> int
val zombie_cancels : t -> int
val max_stall_observed : t -> Clock.time

val check_ladder : t -> string list
(** Honesty replay over the transition log (the [watchdog-ladder]
    invariant): transitions chain from Healthy, move one rung at a
    time, every escalation carries a recorded unhealthy verdict and
    every de-escalation a clean one. Empty when honest. *)
