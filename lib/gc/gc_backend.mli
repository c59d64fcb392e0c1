(** Pluggable GC backends (DESIGN §4h).

    Three collectors answer "which versions may be reclaimed, and
    when?" against the same version store:

    - {b vcutter} — the paper's dead-zone design: buffered aging with
      segment-granularity pruning, then whole-segment cuts. Wins prune
      completeness (versions die in vBuffer before ever being stored).
      Online invariant: cut completeness within the governor budget.
    - {b range} — Wei & Fatourou-style range tracking: announce the
      valid interval, harden eagerly, reclaim per-version in the store
      by subtracting the live-snapshot set. Online invariant: the
      universal Definition-3.3 prune audit (its reclaims are the most
      fine-grained, so it leans hardest on it).
    - {b bounded} — BBF+-style bounded-space collection: eager flush
      plus per-version reclaim that {e outranks} the governor budget
      while more than K dead versions remain resident. Wins worst-case
      space. Online invariant: every post-step dead-resident checkpoint
      is within K.

    Each backend also has a sabotage mode the invariant catalogue
    provably catches (a budget-shirking cutter, an announce-array
    off-by-one, a token-effort collector ignoring its bound).

    Installation swaps the whole sweep-then-cut pair inside
    {!Driver.maintain}; governor budgets, Emergency sync-maintenance
    and the shedding ladder apply to all three unchanged. An installed
    [vcutter] backend is byte-identical to an un-hooked driver. *)

type kind = Vcutter | Range | Bounded

type config = {
  kind : kind;
  sabotage : bool;
  bounded_max_dead : int;  (** K: the BBF+ resident dead-version bound *)
}

val default_config : config
(** [vcutter], no sabotage, scan cap 4, bound 256. *)

val kind_name : kind -> string
val kind_id : kind -> int
(** Stable: vcutter=0, range=1, bounded=2 (the [gc-backend] gauge). *)

val all_kinds : kind list

val kind_of_string : string -> (kind, [ `Msg of string ]) result
(** Parse a [--gc-backend] value; the [`Msg] form feeds straight into a
    cmdliner usage error for unknown names. *)

val install : Driver.t -> config -> unit
val uninstall : Driver.t -> unit

val installed_name : Driver.t -> string
(** ["vcutter"] when nothing is installed — the built-in path {e is}
    the vCutter design. *)

val gauges : Driver.t -> (string * int) list
(** The installed backend's observability counters (empty un-hooked). *)

val frontier : Driver.t -> Timestamp.t option
(** The installed backend's reclamation frontier: the oldest timestamp
    it still treats as potentially live. *)

val wrap_engine :
  config -> (Schema.t -> Engine.t) -> Schema.t -> Engine.t
(** [wrap_engine cfg factory] is a factory that installs the backend on
    every driver-backed engine it builds — the composition point for
    the runner's [~engine] argument. *)
