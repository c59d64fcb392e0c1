type factory = State.config -> Schema.t -> Engine.t

let vdriver =
  [
    ("pg-vdriver", fun driver_config s -> Siro_engine.create ~driver_config ~flavor:`Pg s);
    ("mysql-vdriver", fun driver_config s -> Siro_engine.create ~driver_config ~flavor:`Mysql s);
  ]

let paper =
  ("pg", fun _ s -> Inrow_engine.create s)
  :: ("mysql", fun _ s -> Offrow_engine.create s)
  :: vdriver

let all = paper @ [ ("mysql-interval-gc", fun _ s -> Offrow_engine.create ~gc:`Interval_scan s) ]
