(** Per-transaction progress leases for zombie-LLT containment.

    A lease bounds {e idleness}, not lifetime: LLTs legitimately run
    for the whole experiment, so an LLT gets a long lease and a short
    transaction a short one (both derived from the experiment config by
    the runner), and only a transaction that made {b no read/write
    progress} for longer than its lease becomes a zombie candidate. The
    watchdog cancels a candidate only if it additionally pins
    otherwise-dead versions ({!Driver.pins_dead_interval}), and always
    cooperatively — through the workload's existing forced-abort and
    backoff path, never mid-operation.

    Every cancellation is journalled with the victim's idle time and
    lease so the [no-false-kill] invariant
    ({!Invariant.check_no_false_kill}) can replay the decisions: the
    watchdog must never have cancelled a transaction that made progress
    within its lease. *)

type kind = Short | Llt | Primary

type config = { short_lease : Clock.time; llt_lease : Clock.time }

type cancel = {
  c_tid : Timestamp.t;
  c_at : Clock.time;  (** when the cancel was recorded *)
  c_idle : Clock.time;  (** time since the victim's last progress *)
  c_lease : Clock.time;  (** the lease it was judged against *)
}

type t

val create : ?config:config -> unit -> t
(** Raises [Invalid_argument] on non-positive leases. *)

val grant : t -> tid:Timestamp.t -> kind:kind -> now:Clock.time -> unit
(** Start (or restart) a lease for [tid]; progress starts at [now].
    Raises for [Primary] — primary leases take an explicit duration
    through {!grant_primary}. *)

val grant_primary : t -> tid:Timestamp.t -> lease:Clock.time -> now:Clock.time -> unit
(** Start (or renew) a {e primary authority} lease: the replication
    layer keys these by shard id rather than transaction id. A live
    primary renews by {!note_progress} heartbeats; heartbeat loss past
    [lease] makes the shard promotable via {!expired}, and the old
    holder's authority is fenced at promotion. Raises on a
    non-positive [lease]. *)

val note_progress : t -> tid:Timestamp.t -> now:Clock.time -> unit
(** Record read/write progress; no-op for unknown tids. *)

val release : t -> tid:Timestamp.t -> unit
(** Drop the lease (commit, abort, give-up, crash-drop). *)

val live : t -> int
val grants : t -> int
val lease_of : t -> tid:Timestamp.t -> Clock.time option
val idle : t -> tid:Timestamp.t -> now:Clock.time -> Clock.time option

val expired : t -> now:Clock.time -> Timestamp.t list
(** Transactions idle past their lease, ascending by tid. These are the
    zombie {e candidates}; the pinning test is the caller's job. *)

val note_cancel : t -> tid:Timestamp.t -> now:Clock.time -> unit
(** Journal a watchdog cancellation of [tid] (idle time and lease are
    snapshotted from the live entry). Call {e before} the kill releases
    the lease; no-op if the lease is already gone. *)

val cancels : t -> cancel list
(** Oldest first. *)

val cancel_count : t -> int
