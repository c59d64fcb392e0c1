(** The sabotage registry: every deliberately broken variant of the
    system, each paired with the online invariants that must catch it.

    Every oracle proves it has teeth with a sabotage twin: the same
    campaign with one planted defect must record a violation of a named
    invariant, while the honest campaign stays clean. The defects
    themselves are knobs in the layers they break ([State],
    [Governor], [Watchdog], [Gc_backend], [Shard_group], [Replica]);
    this module is the one table that names them, routes them to the
    unsharded or sharded campaign, and arms them. The [chaos] CLI's
    [--sabotage NAME] and the [sabotage] test suite both go through the
    arming functions below. *)

type t =
  | Zone_widen  (** every dead zone widened by one timestamp: unsound pruning *)
  | Quota_ignore  (** the governor keeps its quota configured but never acts on it *)
  | Skip_tail_check
      (** restart replays the WAL tail without CRC verification, so a
          torn tail is replayed as if durable *)
  | No_watchdog  (** leases and the lag monitor observe; the ladder never acts *)
  | Gc of Gc_backend.kind
      (** the backend's planted defect: a budget-shirking cutter
          (vcutter), an announce-array off-by-one (range), a collector
          that ignores its space bound (bounded) *)
  | Skip_coord_decision  (** 2PC commits without forcing the decision record *)
  | Net of Shard_group.net_sabotage  (** see {!Shard_group.net_sabotage} *)
  | Failover of Replica.sabotage  (** see {!Replica.sabotage} *)

val all : t list
(** Every row, in table order. *)

val name : t -> string
(** The stable CLI name, e.g. ["zone-widen"], ["gc-range"], ["ack-forge"]. *)

val of_name : string -> t option

val caught_by : t -> string list
(** The invariants of which at least one must fire under the row. *)

val sharded : t -> bool
(** Whether the row breaks the sharded campaign ({!Shard_runner}) rather
    than the unsharded one ({!Runner}). *)

(** {1 Arming}

    Each function leaves its input unchanged unless the row targets
    that layer. *)

val driver_config : t option -> State.config -> State.config
(** [Zone_widen] sets [zone_widen_sabotage = 1]; [Quota_ignore] sets
    the governor's [quota_ignore_sabotage]; [Skip_tail_check] sets
    [recovery_skip_tail_check] and the durable WAL it needs. *)

val watchdog : t option -> Watchdog.config -> Watchdog.config
(** [No_watchdog] sets [enabled = false]. *)

val gc_config : t option -> Gc_backend.config -> Gc_backend.config
(** [Gc k] selects backend [k] with its [sabotage] knob set. *)

val arm_group : t option -> Shard_group.t -> unit
(** Sets the group's skip-coordinator-decision and network sabotage
    knobs: on for the matching row, off otherwise. *)

val arm_replica : t option -> Replica.t -> unit
(** Sets the replication group's failover sabotage knob. *)
