(** Seeded chaos campaigns: what [bin/chaos] runs per campaign, as
    library values so tests can pin what a flag set produces. The
    workload, fault plan and every schedule are functions of the
    campaign seed. *)

val seeds : seed:int -> int -> int list
(** One independent seed per campaign, drawn from the base seed. *)

val config : seed:int -> duration:float -> ckpt_ms:int -> Exp_config.t
(** 8 workers on a 4×250-row Zipfian (0.9) schema, two LLTs from 1/5
    of the run for half of it and one from 1/2 for a quarter,
    checkpoints every [ckpt_ms]. *)

val engine :
  ?sabotage:Sabotage.t ->
  ?quota:int ->
  ?vbuffer:int ->
  ?gc:Gc_backend.config ->
  durable:bool ->
  Engine_table.factory ->
  Schema.t ->
  Engine.t
(** The engine a campaign (or a [vdriver_sim run]) drives: the factory
    under the sabotage's driver config, a governor at [quota] bytes and
    a [vbuffer]-byte vBuffer when positive, the durable WAL when
    [durable], behind GC backend [gc] (vcutter). *)

val plan : ?stalls:bool -> ?zombies:bool -> crash_points:int -> seed:int -> unit -> Fault_plan.t
(** {!Fault_plan.random} with [crash_points] seeded log positions, each
    with a torn tail. *)

val sharded :
  ?scenario:Shard_router.scenario ->
  ?cross_pct:int ->
  ?crash_points:int ->
  ?crash_steps:int ->
  ?sabotage:Sabotage.t ->
  ?net:float * float * int * int ->
  ?replicas:int ->
  ?rep_quorum:int ->
  ?kill_nodes:bool ->
  ?kill_steps:int ->
  seed:int ->
  duration:float ->
  ckpt_ms:int ->
  shards:int ->
  unit ->
  Shard_runner.cfg
(** {!config} over [shards] pipelines: [crash_points] seeded global log
    positions and [crash_steps] seeded 2PC steps, with torn tails;
    [net] = (loss, dup, delay µs, partitions) for
    {!Fault_plan.random_net}; [kill_nodes] for {!Fault_plan.random_nodes};
    [kill_steps] seeded replication steps. [rep_quorum] 0 is a
    majority. [kill_nodes] with crash points or crash steps raises
    [Invalid_argument]. *)
