(* Runs campaigns in fresh child processes, checks their results, and
   turns them into the benchmark's end-to-end and per-layer metrics.

   One campaign runs per child process (this same executable, one
   domain), one child at a time, so each child's CPU time, allocation
   and peak heap are the campaign's own. A run of a workload executes
   all of the workload's seeded campaigns; simulated metrics pool over
   them and host metrics are medians over repeated passes. The traced
   run is separate: it pairs each campaign's untraced child with a
   traced one, which must reproduce the untraced run's simulated
   results exactly. *)

(* ---- statistics ---- *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> Float.nan
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Interquartile range over the median, with quartiles computed like
   Python's [statistics.quantiles(xs, n=4)]; 0 below two samples. *)
let spread xs =
  let n = List.length xs in
  if n < 2 then 0.
  else
    let a = Array.of_list (sorted xs) in
    let q k =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (k * m / 4)) in
      let delta = float_of_int ((k * m) - (j * 4)) /. 4. in
      a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. delta)
    in
    let med = median xs in
    if med = 0. then 0. else Float.abs (q 3 -. q 1) /. Float.abs med

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let mean f xs = sum f xs /. float_of_int (max 1 (List.length xs))
let now () = Unix.gettimeofday ()

(* ---- one campaign in a child process ---- *)

type child = {
  outcome : Workloads.outcome;
  exercised : string list;
  cpu_s : float;  (** user + system CPU time of the campaign *)
  minor_words : float;
  top_heap_words : int;
  minor_collections : int;
  major_collections : int;
  sampler : Sampler.t option;
  timer : Engine_timer.t option;
}

let child_main (w : Workloads.t) ~seed ~traced =
  (* The result goes back over the original stdout; whatever the run
     itself prints goes to stderr. *)
  let out = Unix.out_channel_of_descr (Unix.dup Unix.stdout) in
  Unix.dup2 Unix.stderr Unix.stdout;
  let sampler = if traced then Some (Sampler.create ()) else None in
  let timer = if traced then Some (Engine_timer.create ()) else None in
  let wrap = match timer with Some t -> Engine_timer.wrap t | None -> Fun.id in
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let g0 = Gc.quick_stat () and c0 = cpu () in
  let run () = w.Workloads.run ~seed ~wrap in
  let outcome = match sampler with Some s -> Sampler.with_sampling s run | None -> run () in
  let c1 = cpu () and g1 = Gc.quick_stat () in
  Marshal.to_channel out
    {
      outcome;
      exercised = w.Workloads.exercised outcome;
      cpu_s = c1 -. c0;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      top_heap_words = g1.Gc.top_heap_words;
      minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      sampler;
      timer;
    }
    [];
  close_out out

let spawn (w : Workloads.t) ~seed ~traced =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "child"; w.Workloads.name; string_of_int seed; (if traced then "1" else "0") |]
  in
  let res = try Ok (Marshal.from_channel ic : child) with e -> Error (Printexc.to_string e) in
  match (Unix.close_process_in ic, res) with
  | Unix.WEXITED 0, Ok c -> Ok c
  | _, Error e -> Error e
  | _, Ok _ -> Error "child exited abnormally"

(* ---- checks ---- *)

type tally = { mutable attempted : int; mutable failures : string list }

let tally () = { attempted = 0; failures = [] }
let fail t msg = t.failures <- msg :: t.failures

(* Run one campaign and check it; [None] when it failed. [reference]
   is the outcome of an earlier run of the same seed: everything a
   campaign simulates must come out the same. *)
let campaign t w ~seed ~traced ~reference =
  t.attempted <- t.attempted + 1;
  let where = Printf.sprintf "%s seed %d%s" w.Workloads.name seed (if traced then " traced" else "") in
  match spawn w ~seed ~traced with
  | Error e ->
      fail t (Printf.sprintf "%s: %s" where e);
      None
  | Ok c ->
      let problems =
        (if c.outcome.Workloads.violations > 0 then
           [ Printf.sprintf "%d invariant violations" c.outcome.Workloads.violations ]
         else [])
        @ c.exercised
        @
        match reference with
        | Some r when r <> c.outcome -> [ "simulated results differ from an earlier run of the seed" ]
        | _ -> []
      in
      if problems = [] then Some c
      else begin
        fail t (Printf.sprintf "%s: %s" where (String.concat "; " problems));
        None
      end

(* ---- end-to-end metrics ---- *)

type metric = { name : string; unit : string; value : float; samples : float list }

let end_to_end =
  [
    ("sim_commits_per_s", "1/s");
    ("peak_version_bytes", "bytes");
    ("failed_txn_ratio", "ratio");
    ("host_us_per_commit", "us");
    ("alloc_words_per_commit", "words");
    ("peak_heap_mb", "MB");
    ("setup_s", "s");
  ]

let unit_of name = List.assoc name end_to_end

let commits cs = sum (fun c -> float_of_int c.outcome.Workloads.commits) cs

(* Simulated metrics pool over a pass's campaigns; host metrics are
   computed per pass. CPU time per commit is the median campaign's, so
   a burst of load from other tenants of the host that slows one or two
   campaigns of a pass does not move it. *)
let simulated cs =
  let failed = sum (fun c -> float_of_int c.outcome.Workloads.failed_txns) cs in
  [
    ("sim_commits_per_s", commits cs /. sum (fun c -> c.outcome.Workloads.sim_seconds) cs);
    ("peak_version_bytes", mean (fun c -> float_of_int c.outcome.Workloads.peak_version_bytes) cs);
    ("failed_txn_ratio", failed /. (commits cs +. failed));
  ]

let host cs =
  [
    ("host_us_per_commit", median (List.map (fun c -> 1e6 *. c.cpu_s /. commits [ c ]) cs));
    ("alloc_words_per_commit", sum (fun c -> c.minor_words) cs /. commits cs);
    ("peak_heap_mb", mean (fun c -> float_of_int (c.top_heap_words * (Sys.word_size / 8)) /. 1e6) cs);
  ]

let setup_repeats = 21

(* The median of [setup_repeats] timed set-ups. *)
let time_setup (w : Workloads.t) ~seed =
  median
    (List.init setup_repeats (fun _ ->
         let t0 = Monotonic_clock.now () in
         w.Workloads.setup ~seed;
         Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9))

(* Passes over every campaign of the workload, each after timing the
   set-up: at least [min_passes], then more while another one is
   expected to end within [seconds] of the start. *)
let measure_end_to_end t (w : Workloads.t) ~seed ~min_passes ~seconds =
  let seeds = Workloads.campaign_seeds w ~seed in
  let reference = Hashtbl.create 8 in
  let start = now () in
  let rec passes n acc =
    let p0 = now () in
    let setup = time_setup w ~seed in
    let cs =
      List.filter_map
        (fun s ->
          let c = campaign t w ~seed:s ~traced:false ~reference:(Hashtbl.find_opt reference s) in
          Option.iter (fun c -> Hashtbl.replace reference s c.outcome) c;
          c)
        seeds
    in
    let acc = (setup, cs) :: acc in
    let elapsed = now () -. start in
    if n < min_passes || elapsed +. (now () -. p0) <= seconds then passes (n + 1) acc
    else List.rev acc
  in
  let all = passes 1 [] in
  let metric name samples = { name; unit = unit_of name; value = median samples; samples } in
  let setup = metric "setup_s" (List.map fst all) in
  match List.filter (fun cs -> cs <> []) (List.map snd all) with
  | [] -> [ setup ]
  | first :: _ as full ->
      let per_pass = List.map host full in
      List.map (fun (name, v) -> metric name [ v ]) (simulated first)
      @ List.map (fun (name, _) -> metric name (List.map (List.assoc name) per_pass)) (host first)
      @ [ setup ]

(* ---- per-layer metrics ---- *)

let self_modules =
  [
    "sim.scheduler"; "workload.runner"; "workload.shard_runner";
    "engines.siro_engine"; "engines.shard_group"; "engines.replica";
    "core.driver"; "core.vsorter"; "core.vcutter"; "core.state"; "gc.vcutter_backend";
    "storage.wal"; "storage.wal_record"; "storage.wal_recovery"; "storage.checkpoint";
    "storage.lru"; "storage.buffer_pool";
    "fault.invariant"; "net.bus";
    "txn.txn_manager"; "txn.commit_log"; "txn.read_view"; "version.chain"; "deadzone.prune";
    "obs.jsonx"; "util.crc32"; "util.zipf"; "util.rng";
  ]

let lib_dirs =
  [ "core"; "deadzone"; "engines"; "fault"; "gc"; "net"; "obs"; "sim"; "storage"; "txn"; "util"; "version"; "workload" ]

let counter_unit name =
  if Filename.check_suffix name "_us" then "us"
  else if Filename.check_suffix name "_ms" then "ms"
  else if name = "core.prune_completeness" then "ratio"
  else "count"

(* Every per-layer metric with its unit, in report order. *)
let per_layer =
  List.concat_map (fun m -> [ (m ^ ".self_pct", "%"); (m ^ ".self_us_per_commit", "us") ]) self_modules
  @ List.map (fun d -> (d ^ ".incl_pct", "%")) lib_dirs
  @ List.concat_map
      (fun op -> [ ("engine." ^ op ^ ".calls", "count"); ("engine." ^ op ^ ".host_ns_per_call", "ns") ])
      Engine_timer.ops
  @ List.map (fun n -> (n, counter_unit n)) Workloads.counter_names
  @ [
      ("ocaml.minor_collections", "count");
      ("ocaml.major_collections", "count");
      ("trace.overhead_pct", "%");
      ("trace.coverage_pct", "%");
    ]
  @ List.map (fun n -> (n, "ns")) Micro.names

(* The fixed per-layer list with [values] filled in; a layer the run
   did not reach reads 0. *)
let complete_layers values =
  List.map (fun (name, unit) -> (name, unit, Option.value ~default:0. (List.assoc_opt name values))) per_layer

type layers = {
  values : (string * float) list;
  modules : (string * float * float) list;
      (** every module the sampler saw: (layer, self %, inclusive %) *)
  coverage : float;
}

let min_coverage = 0.95

(* Untraced and traced child of each campaign in turn: all of them, or
   while another pair is expected to end within [seconds]. *)
let measure_layers t (w : Workloads.t) ~seed ~seconds =
  let start = now () in
  let rec pairs acc = function
    | [] -> List.rev acc
    | s :: rest ->
        let p0 = now () in
        let acc =
          match campaign t w ~seed:s ~traced:false ~reference:None with
          | None -> acc
          | Some u -> (
              match campaign t w ~seed:s ~traced:true ~reference:(Some u.outcome) with
              | None -> acc
              | Some tr -> (u, tr) :: acc)
        in
        let elapsed = now () -. start in
        if acc <> [] && elapsed +. (now () -. p0) > seconds then List.rev acc else pairs acc rest
  in
  let ps = pairs [] (Workloads.campaign_seeds w ~seed) in
  let us = List.map fst ps and trs = List.map snd ps in
  let smp = Sampler.create () and timer = Engine_timer.create () in
  List.iter
    (fun c ->
      Option.iter (Sampler.merge smp) c.sampler;
      Option.iter (Engine_timer.merge timer) c.timer)
    trs;
  let per_commit cs = 1e6 *. sum (fun c -> c.cpu_s) cs /. commits cs in
  let traced_us = per_commit trs in
  let coverage = Sampler.coverage smp in
  if ps <> [] && coverage < min_coverage then
    fail t (Printf.sprintf "%s: sampler attributed only %.1f%% of samples" w.Workloads.name (100. *. coverage));
  let first = List.nth_opt ps 0 in
  let values =
    List.concat_map
      (fun m ->
        let pct = Sampler.pct smp smp.Sampler.self m in
        [ (m ^ ".self_pct", pct); (m ^ ".self_us_per_commit", pct /. 100. *. traced_us) ])
      self_modules
    @ List.map (fun d -> (d ^ ".incl_pct", Sampler.pct smp smp.Sampler.incl d)) lib_dirs
    @ List.concat
        (List.mapi
           (fun i op ->
             (* Calls are the first campaign's: a simulated count. *)
             let calls =
               match first with
               | Some (_, { timer = Some ft; _ }) -> float_of_int ft.Engine_timer.calls.(i)
               | _ -> 0.
             in
             let per_call =
               if timer.Engine_timer.calls.(i) = 0 then 0.
               else float_of_int timer.Engine_timer.ns.(i) /. float_of_int timer.Engine_timer.calls.(i)
             in
             [ ("engine." ^ op ^ ".calls", calls); ("engine." ^ op ^ ".host_ns_per_call", per_call) ])
           Engine_timer.ops)
    @ (match first with
      | Some (u, _) ->
          List.map (fun n -> (n, Workloads.counter u.outcome n)) Workloads.counter_names
          @ [
              ("ocaml.minor_collections", float_of_int u.minor_collections);
              ("ocaml.major_collections", float_of_int u.major_collections);
            ]
      | None -> [])
    @ [
        ("trace.overhead_pct", 100. *. (traced_us -. per_commit us) /. per_commit us);
        ("trace.coverage_pct", 100. *. coverage);
      ]
  in
  let modules =
    Hashtbl.fold
      (fun k _ acc ->
        if String.contains k '.' then
          (k, Sampler.pct smp smp.Sampler.self k, Sampler.pct smp smp.Sampler.incl k) :: acc
        else acc)
      smp.Sampler.incl []
    |> List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a)
  in
  { values; modules; coverage }
