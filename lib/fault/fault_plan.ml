type action =
  | Crash
  | Abort_txn
  | Wal_error
  | Flush_fail
  | Evict_storm
  | Space_storm
  | Cleaner_stall
  | Llt_zombie
  | Collab_delay
  | Node_kill
  | Node_revive

let action_name = function
  | Crash -> "crash"
  | Abort_txn -> "abort"
  | Wal_error -> "wal-error"
  | Flush_fail -> "flush-fail"
  | Evict_storm -> "evict-storm"
  | Space_storm -> "space-storm"
  | Cleaner_stall -> "cleaner-stall"
  | Llt_zombie -> "llt-zombie"
  | Collab_delay -> "collab-delay"
  | Node_kill -> "node-kill"
  | Node_revive -> "node-revive"

type event = { at : Clock.time; action : action }

(* One Poisson arrival process, as declared: the action, its rate and
   the seed of its private stream. The plan itself never changes; a
   {!cursor} replays the arrivals, so every run polling its own cursor
   sees the same schedule. *)
type process = {
  p_action : action;
  rate : float; (* injections per simulated second; 0 = never *)
  sub_seed : int;
}

type t = {
  plan_seed : int;
  events : event list; (* sorted by [at] *)
  processes : process list; (* every kind, in declaration order *)
  check_period : Clock.time;
  crash_points : int list; (* crash-at-LSN schedule, ascending *)
  torn_tail : bool;
}

(* Every kind draws its sub-seed from the plan seed in this order.
   Newer kinds were appended so plans that do not use them keep the
   exact sub-seed sequence (and therefore injection times) they had
   before those kinds existed: first the original six, then a retired
   WAL bit-flip kind, then the liveness trio, then the node pair. The
   retired kind's slot ([None]) still draws its sub-seed and discards
   it, so every later kind keeps its stream. Append only. *)
let seed_slots =
  [
    Some Crash;
    Some Abort_txn;
    Some Wal_error;
    Some Flush_fail;
    Some Evict_storm;
    Some Space_storm;
    None;
    Some Cleaner_stall;
    Some Llt_zombie;
    Some Collab_delay;
    Some Node_kill;
    Some Node_revive;
  ]

(* [rates] names the kinds with a rate; every other kind's is 0. *)
let make ?(seed = 0) ?(events = []) ?(crash_points = []) ?(torn_tail = false)
    ?(check_period = Clock.ms 100) rates =
  if check_period <= 0 then invalid_arg "Fault_plan: non-positive check period";
  (* Derive one independent stream per process from the plan seed,
     drawing a sub-seed for every kind whatever its rate. *)
  let master = Rng.create seed in
  let processes =
    List.filter_map
      (fun slot ->
        let sub_seed = Int64.to_int (Rng.next_int64 master) in
        Option.map
          (fun p_action ->
            let rate = Option.value (List.assoc_opt p_action rates) ~default:0. in
            if rate < 0. then invalid_arg "Fault_plan: negative rate";
            { p_action; rate; sub_seed })
          slot)
      seed_slots
  in
  {
    plan_seed = seed;
    events = List.sort (fun a b -> compare (a.at, a.action) (b.at, b.action)) events;
    processes;
    check_period;
    crash_points = List.sort_uniq compare (List.filter (fun p -> p > 0) crash_points);
    torn_tail;
  }

let create ?seed ?events ?(crash_rate = 0.) ?(abort_rate = 0.) ?(space_storm_rate = 0.)
    ?(cleaner_stall_rate = 0.) ?(llt_zombie_rate = 0.) ?(collab_delay_rate = 0.)
    ?(node_kill_rate = 0.) ?(node_revive_rate = 0.) ?crash_points ?torn_tail ?check_period () =
  make ?seed ?events ?crash_points ?torn_tail ?check_period
    [
      (Crash, crash_rate);
      (Abort_txn, abort_rate);
      (Space_storm, space_storm_rate);
      (Cleaner_stall, cleaner_stall_rate);
      (Llt_zombie, llt_zombie_rate);
      (Collab_delay, collab_delay_rate);
      (Node_kill, node_kill_rate);
      (Node_revive, node_revive_rate);
    ]

let none = create ()

let random ?(crash_points = []) ?(torn_tail = false) ?(stalls = false)
    ?(zombies = false) ~seed () =
  let rng = Rng.create (seed lxor 0x6661756c74) in
  (* Keep crashes rare relative to the finer-grained faults: a crash
     wipes the state the other injections are stressing. The rate draws
     happen in this exact order regardless of the crash-point extras.
     Historically the rates were drawn inline at the [create] call site,
     which OCaml evaluates right-to-left — so the stream order is
     space-storm first and crash last. The explicit bindings freeze that
     order; the gated liveness draws come strictly after, so plans
     without [stalls]/[zombies] are unchanged from before they existed. *)
  let draw lo hi = lo +. (Rng.float rng *. (hi -. lo)) in
  let space_storm_rate = draw 0.5 3. in
  let evict_storm_rate = draw 0.5 4. in
  let flush_fail_rate = draw 5. 40. in
  let wal_error_rate = draw 1. 10. in
  let abort_rate = draw 2. 20. in
  let crash_rate = draw 0.05 0.3 in
  let cleaner_stall_rate = if stalls then draw 0.8 2.5 else 0. in
  let collab_delay_rate = if stalls then draw 1. 4. else 0. in
  let llt_zombie_rate = if zombies then draw 0.5 1.5 else 0. in
  make ~seed ~crash_points ~torn_tail
    [
      (Crash, crash_rate);
      (Abort_txn, abort_rate);
      (Wal_error, wal_error_rate);
      (Flush_fail, flush_fail_rate);
      (Evict_storm, evict_storm_rate);
      (Space_storm, space_storm_rate);
      (Cleaner_stall, cleaner_stall_rate);
      (Llt_zombie, llt_zombie_rate);
      (Collab_delay, collab_delay_rate);
    ]

(* Seeded network-fault config for the shard fabric. The partition
   schedule is drawn from a stream forked off [seed] (distinct tweak
   from [random]'s), so a campaign can pair a process-fault plan and a
   net config from one seed without the draws interfering. Windows are
   placed in the first ~70% of the horizon and always heal strictly
   before it, so bounded-lag clocks get room to run. *)
let random_net ?(loss = 0.1) ?(dup = 0.05) ?(delay_us = 150) ?(partitions = 1)
    ~shards ~horizon ~seed () =
  if shards < 2 then invalid_arg "Fault_plan.random_net: need at least two shards";
  if horizon <= 0 then invalid_arg "Fault_plan.random_net: need a positive horizon";
  if partitions < 0 then invalid_arg "Fault_plan.random_net: negative partition count";
  let rng = Rng.create (seed lxor 0x6e6574fa) in
  let parts =
    List.init partitions (fun i ->
        (* Isolate a seeded nonempty strict subset of the shard
           endpoints (the coordinator service endpoint stays on the
           majority side, so decisions remain reachable from there). *)
        let k = 1 + Rng.int rng (max 1 (shards - 1)) in
        let k = min k (shards - 1) in
        let start = Rng.int rng shards in
        let isolated = List.init k (fun j -> (start + j) mod shards) in
        let span = max 1 (horizon * 7 / 10) in
        let from_t = 1 + Rng.int rng span in
        let width = 1 + Rng.int rng (max 1 (horizon / 5)) in
        let heal_t = min (from_t + width) (horizon - 1) in
        let heal_t = max heal_t (from_t + 1) in
        { Net_fault.p_name = Printf.sprintf "p%d" i; isolated; from_t; heal_t })
  in
  Net_fault.make ~loss ~dup ~max_delay:(Clock.us delay_us) ~partitions:parts ~seed ()

(* Seeded whole-node fault plan for the replication layer. Its own seed
   tweak keeps the arrival draws independent of both [random] (process
   faults) and [random_net] (fabric faults) built from the same
   campaign seed. Revives arrive a bit faster than kills so the
   one-dead-per-group budget keeps freeing up. The sweep runs at the
   sharded runner's 50 ms cadence. *)
let random_nodes ~seed () =
  let rng = Rng.create (seed lxor 0x6e6f6465) in
  let draw lo hi = lo +. (Rng.float rng *. (hi -. lo)) in
  let node_kill_rate = draw 2. 8. in
  let node_revive_rate = draw 4. 12. in
  create ~seed ~node_kill_rate ~node_revive_rate ~check_period:(Clock.ms 50) ()

(* [processes] lists every kind, so [find] always succeeds. *)
let rate t action = (List.find (fun p -> p.p_action = action) t.processes).rate

let actions t =
  List.filter_map
    (fun p ->
      if p.rate > 0. || List.exists (fun e -> e.action = p.p_action) t.events then
        Some p.p_action
      else None)
    t.processes

(* Every other process keeps its sub-seed (and injection times): the
   Sim/Domains pairs compare runs under crash-free variants of one plan. *)
let without_crashes t =
  if (not (List.mem Crash (actions t))) && t.crash_points = [] && not t.torn_tail then t
  else
    {
      t with
      events = List.filter (fun e -> e.action <> Crash) t.events;
      processes =
        List.map (fun p -> if p.p_action = Crash then { p with rate = 0. } else p) t.processes;
      crash_points = [];
      torn_tail = false;
    }

let seed t = t.plan_seed
let check_period t = t.check_period
let crash_points t = t.crash_points
let torn_tail t = t.torn_tail

(* A run's replay of the plan: the events not yet returned, and each
   process's private stream with the pre-drawn time of its next
   injection (advancing draws the following inter-arrival gap, so the
   sequence is a pure function of the seed). *)
type arrival = { p : process; rng : Rng.t; mutable next : Clock.time }
type cursor = { mutable due : event list; arrivals : arrival list }

let gap a =
  (* Exponential inter-arrival: -ln(1-u)/rate seconds, floored to 1 ns
     so the process always advances. *)
  let u = Rng.float a.rng in
  max 1 (Clock.seconds (-.log (1. -. u) /. a.p.rate))

let cursor t =
  let arrival p =
    let a = { p; rng = Rng.create p.sub_seed; next = 0 } in
    a.next <- gap a;
    a
  in
  { due = t.events; arrivals = List.map arrival (List.filter (fun p -> p.rate > 0.) t.processes) }

let rec quiet now = function [] -> true | a :: rest -> a.next > now && quiet now rest

(* Called before every dispatch of a faulted run: when nothing is due
   it allocates nothing. *)
let poll c ~now =
  if (match c.due with e :: _ -> e.at > now | [] -> true) && quiet now c.arrivals then []
  else
  let due_events = ref [] in
  let rec take = function
    | e :: rest when e.at <= now ->
        due_events := e.action :: !due_events;
        take rest
    | rest -> rest
  in
  c.due <- take c.due;
  let arrivals = ref [] in
  List.iter
    (fun a ->
      while a.next <= now do
        arrivals := a.p.p_action :: !arrivals;
        a.next <- a.next + gap a
      done)
    c.arrivals;
  List.rev !due_events @ List.rev !arrivals

let pp fmt t =
  Format.fprintf fmt "@[<h>seed=%d" t.plan_seed;
  List.iter
    (fun p -> if p.rate > 0. then Format.fprintf fmt " %s=%.3g/s" (action_name p.p_action) p.rate)
    t.processes;
  Format.fprintf fmt "@]"
