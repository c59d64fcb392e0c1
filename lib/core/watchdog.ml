(* Liveness watchdog: a heartbeat/progress registry over the cleaning
   pipeline plus a four-rung escalation ladder that cures stalls and
   sheds zombie pins. Mirrors the governor's ladder design: adjacent
   transitions only, a logged trail, and a [check_ladder] honesty
   replay the invariant sweep asserts continuously. *)

type rung = Healthy | Nudge | Restart | Sync_reclaim | Shed

let rung_name = function
  | Healthy -> "healthy"
  | Nudge -> "nudge"
  | Restart -> "restart"
  | Sync_reclaim -> "sync-reclaim"
  | Shed -> "shed"

let rung_index = function
  | Healthy -> 0
  | Nudge -> 1
  | Restart -> 2
  | Sync_reclaim -> 3
  | Shed -> 4

let rung_of_index = function
  | 0 -> Healthy
  | 1 -> Nudge
  | 2 -> Restart
  | 3 -> Sync_reclaim
  | 4 -> Shed
  | i -> invalid_arg (Printf.sprintf "Watchdog.rung_of_index: %d" i)

let pp_rung fmt r = Format.pp_print_string fmt (rung_name r)

type config = {
  enabled : bool;
  check_period : Clock.time;
  stall_timeout : Clock.time;
  escalation_cooldown : Clock.time;
  shed_batch : int;
}

let default_config =
  {
    enabled = true;
    check_period = Clock.ms 5;
    stall_timeout = Clock.ms 25;
    escalation_cooldown = Clock.ms 10;
    shed_batch = 4;
  }

(* The reclamation-lag bound L the watchdog guarantees (DESIGN §4e):
   detection of a stall, the full climb to the top rung, the cleaner
   revival taking effect within one maintenance period, plus the lag
   monitor's own observation granularity. Every term is a config knob,
   so the bound is computable before the run and the [reclamation-lag]
   invariant can assert it online. *)
let lag_bound config ~gc_period =
  config.stall_timeout + config.check_period
  + (3 * (config.escalation_cooldown + config.check_period))
  + (2 * max config.check_period gc_period)
  + (4 * config.check_period)

type source = {
  mutable beats : int;  (* monotone pass counter *)
  mutable last_advance : Clock.time;  (* when [beats] last moved *)
  watched : bool;  (* false: counter only, exempt from stall detection *)
}

type transition = {
  at : Clock.time;
  from_rung : rung;
  to_rung : rung;
  stalled : string list;  (* sources past the deadline at the verdict *)
  zombies : int;  (* lease-expired transactions at the verdict *)
}

type actions = {
  nudge : now:Clock.time -> unit;
  restart_cleaners : now:Clock.time -> unit;
  sync_reclaim : now:Clock.time -> unit;
  shed_zombies : max:int -> now:Clock.time -> int;
  zombie_count : now:Clock.time -> int;
}

type t = {
  config : config;
  sources : (string, source) Hashtbl.t;
  mutable rung : rung;
  mutable entered_at : Clock.time;
  mutable log : transition list;  (* newest first *)
  mutable escalations : int;
  mutable nudges : int;
  mutable zombie_cancels : int;
  mutable max_stall : Clock.time;
}

let create ?(config = default_config) () =
  if config.check_period <= 0 then invalid_arg "Watchdog.create: check_period must be positive";
  if config.stall_timeout <= 0 then invalid_arg "Watchdog.create: stall_timeout must be positive";
  if config.escalation_cooldown < 0 then
    invalid_arg "Watchdog.create: negative escalation_cooldown";
  if config.shed_batch <= 0 then invalid_arg "Watchdog.create: shed_batch must be positive";
  {
    config;
    sources = Hashtbl.create 8;
    rung = Healthy;
    entered_at = 0;
    log = [];
    escalations = 0;
    nudges = 0;
    zombie_cancels = 0;
    max_stall = 0;
  }

let config t = t.config
let enabled t = t.config.enabled
let rung t = t.rung

let register ?(watch = true) t name ~now =
  if not (Hashtbl.mem t.sources name) then
    Hashtbl.replace t.sources name { beats = 0; last_advance = now; watched = watch }

let beat t name ~now =
  match Hashtbl.find_opt t.sources name with
  | Some src ->
      src.beats <- src.beats + 1;
      src.last_advance <- max src.last_advance now
  | None -> Hashtbl.replace t.sources name { beats = 1; last_advance = now; watched = true }

let progress t name = match Hashtbl.find_opt t.sources name with Some s -> s.beats | None -> 0

let stalled_sources t ~now =
  List.sort compare
    (Hashtbl.fold
       (fun name src acc ->
         if src.watched && now - src.last_advance > t.config.stall_timeout then name :: acc
         else acc)
       t.sources [])

let transition t ~now ~stalled ~zombies to_rung =
  let from_rung = t.rung in
  t.rung <- to_rung;
  t.entered_at <- now;
  t.log <- { at = now; from_rung; to_rung; stalled; zombies } :: t.log;
  let up = rung_index to_rung > rung_index from_rung in
  if up then t.escalations <- t.escalations + 1;
  Metrics.bump "watchdog.transitions";
  if up then Metrics.bump "watchdog.escalations";
  if Trace.on () then
    Trace.instant Trace.Watchdog
      (if up then "escalate" else "de-escalate")
      ~at:now
      [
        ("from", Trace.S (rung_name from_rung));
        ("to", Trace.S (rung_name to_rung));
        ("stalled", Trace.I (List.length stalled));
        ("zombies", Trace.I zombies);
      ]

let poll t ~now ~actions =
  (* Verdict first: which sources missed their deadline, how many
     transactions are past their lease. Both are computed whether or
     not the ladder is enabled, so a disabled watchdog still observes
     (and the sabotage run still reports max_stall honestly). *)
  Hashtbl.iter
    (fun _ src ->
      if src.watched then begin
        let stall = now - src.last_advance in
        if stall > t.max_stall then t.max_stall <- stall
      end)
    t.sources;
  let stalled = stalled_sources t ~now in
  let zombies = actions.zombie_count ~now in
  let unhealthy = stalled <> [] || zombies > 0 in
  if Trace.on () && unhealthy then
    Trace.instant Trace.Watchdog "unhealthy" ~at:now
      [
        ("stalled", Trace.I (List.length stalled));
        ("zombies", Trace.I zombies);
        ("rung", Trace.S (rung_name t.rung));
      ];
  if t.config.enabled then
    if unhealthy then begin
      (* Climb one adjacent rung per poll, after dwelling at least the
         cooldown on the current one (the first climb out of Healthy is
         immediate: detection already waited for the stall timeout). *)
      if
        rung_index t.rung < 4
        && (t.rung = Healthy || now - t.entered_at >= t.config.escalation_cooldown)
      then transition t ~now ~stalled ~zombies (rung_of_index (rung_index t.rung + 1));
      (* Run every mechanism at or below the current rung, every poll
         while unhealthy: the ladder is cumulative, so reaching rung r
         never gives up the weaker cures. *)
      let r = rung_index t.rung in
      if r >= 1 then begin
        t.nudges <- t.nudges + 1;
        actions.nudge ~now
      end;
      if r >= 2 then actions.restart_cleaners ~now;
      if r >= 3 then actions.sync_reclaim ~now;
      if r >= 4 then begin
        let n = actions.shed_zombies ~max:t.config.shed_batch ~now in
        t.zombie_cancels <- t.zombie_cancels + n;
        if n > 0 && Trace.on () then
          Trace.instant Trace.Watchdog "zombie-shed" ~at:now [ ("victims", Trace.I n) ]
      end
    end
    else if rung_index t.rung > 0 then
      transition t ~now ~stalled ~zombies (rung_of_index (rung_index t.rung - 1))

let escalations t = t.escalations
let nudges t = t.nudges
let zombie_cancels t = t.zombie_cancels
let max_stall_observed t = t.max_stall
let transitions t = List.rev t.log

(* Honesty replay, mirroring [Governor.check_ladder]: transitions chain
   from Healthy, move one rung at a time, and every escalation carries
   a recorded unhealthy verdict while every de-escalation carries a
   clean one. *)
let check_ladder t =
  let check acc tr =
    let step = rung_index tr.to_rung - rung_index tr.from_rung in
    if abs step <> 1 then
      Format.asprintf "non-adjacent transition %a->%a at %a" pp_rung tr.from_rung pp_rung
        tr.to_rung Clock.pp tr.at
      :: acc
    else if step = 1 then begin
      if tr.stalled = [] && tr.zombies = 0 then
        Format.asprintf "escalation %a->%a at %a with no stalled source and no zombie" pp_rung
          tr.from_rung pp_rung tr.to_rung Clock.pp tr.at
        :: acc
      else acc
    end
    else if tr.stalled <> [] || tr.zombies > 0 then
      Format.asprintf "de-escalation %a->%a at %a while unhealthy (%d stalled, %d zombies)"
        pp_rung tr.from_rung pp_rung tr.to_rung Clock.pp tr.at (List.length tr.stalled)
        tr.zombies
      :: acc
    else acc
  in
  let rec chained acc prev = function
    | [] -> acc
    | tr :: rest ->
        let acc =
          if tr.from_rung <> prev then
            Format.asprintf "transition at %a leaves %a but the ladder was at %a" Clock.pp tr.at
              pp_rung tr.from_rung pp_rung prev
            :: acc
          else acc
        in
        chained (check acc tr) tr.to_rung rest
  in
  List.rev (chained [] Healthy (transitions t))
