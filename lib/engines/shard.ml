type t = {
  sid : int;
  engine : Engine.t;
  driver : Driver.t;
  wal : Wal.t;
  twopc : Engine.twopc;
  schema : Schema.t; (* this shard's local layout *)
}

let create ?driver_config ~mgr ~sid ~flavor schema =
  if sid < 0 then invalid_arg "Shard.create: negative shard id";
  let config =
    (* A shard must run a durable WAL: 2PC is a logging protocol, and a
       shard that cannot force a Prepare cannot promise anything. *)
    match driver_config with
    | Some c ->
        if not c.State.durable_wal then
          invalid_arg "Shard.create: shards require durable_wal";
        c
    | None -> { State.default_config with State.durable_wal = true }
  in
  let engine = Siro_engine.create ~driver_config:config ~mgr ~shard:sid ~flavor schema in
  let driver = Siro_engine.driver_exn engine in
  let twopc =
    match engine.Engine.twopc with
    | Some tw -> tw
    | None -> invalid_arg "Shard.create: engine exposes no 2PC primitives"
  in
  driver.State.shared_mgr <- true;
  { sid; engine; driver; wal = twopc.Engine.wal; twopc; schema }

let sid t = t.sid
let engine t = t.engine
let driver t = t.driver
let wal t = t.wal
let twopc t = t.twopc
