(** One shard of a sharded vDriver deployment: a full per-shard
    pipeline (vBuffer, vSorter, vCutter, governor accounting) plus a
    private WAL whose frames carry the shard tag — a disjoint LSN
    namespace, so each shard's recovery analyzes only its own log.

    A shard never owns the snapshot order: every shard shares one
    {!Txn_manager} (passed by the {!Shard_group}), which is what keeps
    reads globally consistent while pruning stays shard-local. *)

type t = {
  sid : int;
  engine : Engine.t;
  driver : Driver.t;
  wal : Wal.t;
  twopc : Engine.twopc;
  schema : Schema.t;  (** this shard's local layout *)
}

val create :
  ?driver_config:State.config ->
  mgr:Txn_manager.t ->
  sid:int ->
  flavor:[ `Pg | `Mysql ] ->
  Schema.t ->
  t
(** Build one shard over the shared manager. [driver_config] must have
    [durable_wal] set (the default when omitted): 2PC is a logging
    protocol. Raises [Invalid_argument] otherwise, or on a negative
    [sid]. The returned shard has [shared_mgr] set on its driver; the
    group wires [zone_source], [ckpt_indoubt] and [indoubt_resolver]. *)

val sid : t -> int
val engine : t -> Engine.t
val driver : t -> Driver.t
val wal : t -> Wal.t
val twopc : t -> Engine.twopc
