type rung = Normal | Pressured | Emergency | Shedding

let rung_name = function
  | Normal -> "normal"
  | Pressured -> "pressured"
  | Emergency -> "emergency"
  | Shedding -> "shedding"

let rung_index = function Normal -> 0 | Pressured -> 1 | Emergency -> 2 | Shedding -> 3

let rung_of_index = function
  | 0 -> Normal
  | 1 -> Pressured
  | 2 -> Emergency
  | 3 -> Shedding
  | i -> invalid_arg (Printf.sprintf "Governor.rung_of_index: %d" i)

let all_rungs = [ Normal; Pressured; Emergency; Shedding ]
let pp_rung fmt r = Format.pp_print_string fmt (rung_name r)

type config = {
  hard_quota_bytes : int;
  pressured_frac : float;
  emergency_frac : float;
  shedding_frac : float;
  hysteresis_frac : float;
  shed_grace : Clock.time;
  shed_batch : int;
  normal_max_segments : int;
  pressured_max_segments : int;
  pressured_gc_scale : float;
  emergency_gc_scale : float;
  quota_ignore_sabotage : bool;
}

let default_config =
  {
    hard_quota_bytes = 0;
    pressured_frac = 0.55;
    emergency_frac = 0.75;
    shedding_frac = 0.9;
    hysteresis_frac = 0.08;
    shed_grace = Clock.ms 100;
    shed_batch = 4;
    normal_max_segments = 64;
    pressured_max_segments = 256;
    pressured_gc_scale = 0.25;
    emergency_gc_scale = 0.1;
    quota_ignore_sabotage = false;
  }

let governed ~quota_bytes = { default_config with hard_quota_bytes = quota_bytes }

type transition = { at : Clock.time; from_rung : rung; to_rung : rung; space_bytes : int }

type t = {
  config : config;
  mutable rung : rung;
  mutable entered_at : Clock.time;  (* when the current rung was entered *)
  mutable last_seen : Clock.time;  (* newest [now] passed to observe *)
  dwell : Clock.time array;  (* completed residences, indexed by rung *)
  mutable log : transition list;  (* newest first *)
  mutable sheds : int;
  mutable assists : int;
}

let create ?(config = default_config) () =
  if config.hard_quota_bytes < 0 then invalid_arg "Governor.create: negative quota";
  if
    not
      (config.pressured_frac > 0.
      && config.pressured_frac < config.emergency_frac
      && config.emergency_frac < config.shedding_frac
      && config.shedding_frac <= 1.)
  then invalid_arg "Governor.create: thresholds must satisfy 0 < p < e < s <= 1";
  if config.hysteresis_frac < 0. || config.hysteresis_frac >= 1. then
    invalid_arg "Governor.create: hysteresis_frac must be in [0, 1)";
  if config.shed_batch <= 0 then invalid_arg "Governor.create: shed_batch must be positive";
  {
    config;
    rung = Normal;
    entered_at = 0;
    last_seen = 0;
    dwell = Array.make 4 0;
    log = [];
    sheds = 0;
    assists = 0;
  }

let config t = t.config
let enabled t = t.config.hard_quota_bytes > 0 && not t.config.quota_ignore_sabotage
let hard_quota t = t.config.hard_quota_bytes
let rung t = t.rung

let enter_threshold config r =
  let frac =
    match r with
    | Normal -> 0.
    | Pressured -> config.pressured_frac
    | Emergency -> config.emergency_frac
    | Shedding -> config.shedding_frac
  in
  int_of_float (frac *. float_of_int config.hard_quota_bytes)

let hysteresis_floor config r =
  int_of_float (float_of_int (enter_threshold config r) *. (1. -. config.hysteresis_frac))

let transition t ~now ~space_bytes to_rung =
  let from_rung = t.rung in
  t.dwell.(rung_index from_rung) <-
    t.dwell.(rung_index from_rung) + max 0 (now - t.entered_at);
  t.rung <- to_rung;
  t.entered_at <- now;
  t.log <- { at = now; from_rung; to_rung; space_bytes } :: t.log;
  Metrics.bump "governor.transitions";
  if Trace.on () then
    Trace.instant Trace.Governor
      (if rung_index to_rung > rung_index from_rung then "escalate" else "de-escalate")
      ~at:now
      [
        ("from", Trace.S (rung_name from_rung));
        ("to", Trace.S (rung_name to_rung));
        ("space_bytes", Trace.I space_bytes);
      ]

let observe t ~now ~space_bytes =
  if not (enabled t) then Normal
  else begin
    t.last_seen <- max t.last_seen now;
    let r = rung_index t.rung in
    (* One adjacent step per observation: up when the next rung's
       threshold is reached, down when we are under this rung's
       hysteresis floor. The band between the floor and the next
       threshold is the no-flap zone. *)
    if r < 3 && space_bytes >= enter_threshold t.config (rung_of_index (r + 1)) then
      transition t ~now ~space_bytes (rung_of_index (r + 1))
    else if r > 0 && space_bytes < hysteresis_floor t.config t.rung then
      transition t ~now ~space_bytes (rung_of_index (r - 1));
    t.rung
  end

let max_segments t =
  match t.rung with
  | Normal -> t.config.normal_max_segments
  | Pressured | Emergency | Shedding -> t.config.pressured_max_segments

let gc_scale t =
  match t.rung with
  | Normal -> 1.0
  | Pressured -> t.config.pressured_gc_scale
  | Emergency | Shedding -> t.config.emergency_gc_scale

let emergency_active t = match t.rung with Emergency | Shedding -> true | _ -> false
let shed_active t = t.rung = Shedding
let note_shed t n =
  t.sheds <- t.sheds + n;
  Metrics.bump_by "governor.sheds" n

let sheds t = t.sheds

let note_assist t =
  t.assists <- t.assists + 1;
  Metrics.bump "governor.assists"

let assists t = t.assists

let note_headroom t ~now ~space_bytes =
  (* A counter-phase event renders the space curve as a graph track in
     chrome://tracing, right above the ladder's instants. *)
  if enabled t then Trace.count Trace.Governor "space_bytes" ~at:now space_bytes

let transitions t = List.rev t.log

let dwell_times t ~now =
  List.map
    (fun r ->
      let d = t.dwell.(rung_index r) in
      let d = if r = t.rung then d + max 0 (now - t.entered_at) else d in
      (r, d))
    all_rungs

let check_ladder t =
  let check acc tr =
    let step = rung_index tr.to_rung - rung_index tr.from_rung in
    if abs step <> 1 then
      Format.asprintf "non-adjacent transition %a->%a at %a" pp_rung tr.from_rung pp_rung
        tr.to_rung Clock.pp tr.at
      :: acc
    else if step = 1 then begin
      let need = enter_threshold t.config tr.to_rung in
      if tr.space_bytes < need then
        Format.asprintf
          "escalation %a->%a at %a saw %d bytes, below the %d-byte threshold" pp_rung
          tr.from_rung pp_rung tr.to_rung Clock.pp tr.at tr.space_bytes need
        :: acc
      else acc
    end
    else begin
      let floor = hysteresis_floor t.config tr.from_rung in
      if tr.space_bytes >= floor then
        Format.asprintf
          "de-escalation %a->%a at %a saw %d bytes, above the %d-byte hysteresis floor"
          pp_rung tr.from_rung pp_rung tr.to_rung Clock.pp tr.at tr.space_bytes floor
        :: acc
      else acc
    end
  in
  (* Transitions must also chain: each one starts from the rung the
     previous one reached. *)
  let rec chained acc prev = function
    | [] -> acc
    | tr :: rest ->
        let acc =
          if tr.from_rung <> prev then
            Format.asprintf "transition at %a leaves %a but the ladder was at %a" Clock.pp
              tr.at pp_rung tr.from_rung pp_rung prev
            :: acc
          else acc
        in
        chained (check acc tr) tr.to_rung rest
  in
  List.rev (chained [] Normal (transitions t))

let pp_transition fmt tr =
  Format.fprintf fmt "%a %a->%a (%d B)" Clock.pp tr.at pp_rung tr.from_rung pp_rung
    tr.to_rung tr.space_bytes

let pp_summary fmt ~now t =
  if not (t.config.hard_quota_bytes > 0) then Format.fprintf fmt "governor: disabled"
  else begin
    Format.fprintf fmt "@[<v>governor: quota=%d B rung=%a sheds=%d assists=%d%s@ "
      t.config.hard_quota_bytes pp_rung t.rung t.sheds t.assists
      (if t.config.quota_ignore_sabotage then " SABOTAGED" else "");
    Format.fprintf fmt "dwell:";
    List.iter
      (fun (r, d) -> Format.fprintf fmt " %s=%a" (rung_name r) Clock.pp d)
      (dwell_times t ~now);
    let trs = transitions t in
    Format.fprintf fmt "@ transitions (%d):" (List.length trs);
    List.iter (fun tr -> Format.fprintf fmt "@ %a" pp_transition tr) trs;
    Format.fprintf fmt "@]"
  end
