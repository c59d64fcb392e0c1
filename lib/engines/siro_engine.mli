(** Engine with vDriver plugged in (SIRO-versioning, §3–§4).

    Heap pages keep each record plus exactly one in-row old version
    (fixed two-slot footprint: pages never split); every older version
    relocates through vSorter into classified version segments. Short
    transactions are served from the in-row pair under a brief latch;
    readers needing older versions go through the LLB and version-buffer
    layer {e without holding the page latch}, so LLTs cannot convoy hot
    pages. The [flavor] selects the host-engine persona: [`Pg] replaces
    PostgreSQL's in-row layout, [`Mysql] replaces InnoDB's undo chains
    and drops the rollback-segment giant latch by recycling undo logs at
    commit (§4.2). Functionally both flavors behave identically, as the
    paper observes of its two integrations. *)

val create :
  ?driver_config:State.config ->
  ?mgr:Txn_manager.t ->
  ?shard:int ->
  flavor:[ `Pg | `Mysql ] ->
  Schema.t ->
  Engine.t
(** [?mgr] shares an existing transaction manager (the global snapshot
    order of a sharded deployment) instead of creating a private one;
    [?shard] (default 0) tags this instance's WAL frames with its shard
    namespace. Unsharded callers omit both and get the seed behavior
    byte for byte. *)

val driver_exn : Engine.t -> Driver.t
(** The engine's vDriver instance. Raises if called on a vanilla
    engine. *)
