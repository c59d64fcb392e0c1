(* GC backend shootout (DESIGN §4h — beyond the paper's figures): the
   paper's vCutter against two rival collectors from the GC literature
   — range tracking (Wei & Fatourou) and BBF+-style bounded-space
   collection — over a sweep of LLT duration x access skew x record
   size, all three under the same governor, invariant catalogue and
   store.

   The claims under test, one column each:

   - vCutter wins *prune completeness* (fraction of retired versions
     that die in vBuffer without ever being stored): buffered aging
     lets whole segments die before hardening, where the rivals'
     eager-flush designs store first and reclaim later.
   - The bounded backend never exceeds its resident dead-version bound
     K at any post-step checkpoint — the guarantee vCutter's
     budget-paced whole-segment cuts do not give.
   - Everyone is prune-sound (the universal audit runs; the violations
     column must be all zero).

   The sweep runs the default vBuffer over a keyspace wide enough that
   a sealed segment takes real time to go whole-dead: in that window
   vCutter *ages* the segment in the buffer while the rivals' eager
   announce/flush passes store it — which is precisely the design
   choice the completeness column measures. (Shrinking the vBuffer
   instead, as `chaos --vbuffer` does, makes all three designs
   converge: overflow forces even vCutter to store.) Exported as
   BENCH_gc_shootout.json. Gates: [vcutter_wins_completeness] and
   [bounded_within_bound] in every cell, and [clean] (no violations). *)

let vbuffer_bytes = State.default_config.State.vbuffer_bytes
let bounded_k = 256
let driver_config = State.default_config

let engine_for kind =
  Gc_backend.wrap_engine
    { Gc_backend.default_config with Gc_backend.kind; bounded_max_dead = bounded_k }
    (fun schema -> Siro_engine.create ~driver_config ~flavor:`Pg schema)

(* Two LLTs from a sixth of the 3 s run, over a keyspace wide enough
   (8 x 1000 rows) that a sealed segment takes real time to go
   whole-dead. *)
let cfg ~llt_duration_s ~skew ~record_bytes =
  {
    (Sweep.workload ~name:"gc-shootout" ~duration_s:3. ~llt_start:0.5 ~llt_s:llt_duration_s
       ~llts:2)
    with
    Exp_config.schema =
      { Schema.default with Schema.tables = 8; rows_per_table = 1000; record_bytes };
    phases =
      [
        {
          Exp_config.at_s = 0.;
          pattern = (if skew <= 0. then Access.Uniform else Access.Zipfian skew);
        };
      ];
    gc_period = Clock.ms 5;
  }

type sample = {
  s_backend : string;
  s_commits : int;
  s_completeness : float;
  s_pruned : int;
  s_stored : int;
  s_peak_space : int;
  s_violations : int;
  s_gauges : (string * int) list;
}

let sample kind ~llt_duration_s ~skew ~record_bytes =
  let r =
    Runner.run ~engine:(engine_for kind) ~faults:Fault_plan.none
      (cfg ~llt_duration_s ~skew ~record_bytes)
  in
  let pruned, stored, gauges =
    match r.Runner.driver with
    | None -> (0, 0, [])
    | Some d ->
        let s = Driver.stats d in
        ( Prune_stats.prune1_total s + Prune_stats.prune2_total s,
          Prune_stats.stored_total s,
          Gc_backend.gauges d )
  in
  let settled = pruned + stored in
  {
    s_backend = Gc_backend.kind_name kind;
    s_commits = r.Runner.commits;
    s_completeness =
      (if settled = 0 then 1. else float_of_int pruned /. float_of_int settled);
    s_pruned = pruned;
    s_stored = stored;
    s_peak_space = Runner.peak_space r;
    s_violations = Fault_report.violation_count r.Runner.faults;
    s_gauges = gauges;
  }

type cell = { samples : sample list; wins : bool; peak_dead : int }

let run_cell (llt_duration_s, skew, record_bytes) =
  let samples =
    List.map (fun kind -> sample kind ~llt_duration_s ~skew ~record_bytes) Gc_backend.all_kinds
  in
  let vcutter = List.hd samples in
  {
    samples;
    wins = List.for_all (fun s -> vcutter.s_completeness >= s.s_completeness) samples;
    peak_dead =
      List.fold_left
        (fun acc s ->
          match List.assoc_opt "gc.bounded.peak_dead" s.s_gauges with Some v -> v | None -> acc)
        0 samples;
  }

let backend_json s =
  Jsonx.Obj
    [
      ("backend", Jsonx.Str s.s_backend);
      ("commits", Jsonx.Int s.s_commits);
      ("prune_completeness", Jsonx.Float s.s_completeness);
      ("pruned", Jsonx.Int s.s_pruned);
      ("stored", Jsonx.Int s.s_stored);
      ("peak_space", Jsonx.Int s.s_peak_space);
      ("violations", Jsonx.Int s.s_violations);
      ("gauges", Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Int v)) s.s_gauges));
    ]

let count f results = List.length (List.filter (fun (_, c) -> f c) results)

let violations results =
  List.fold_left
    (fun acc (_, c) -> List.fold_left (fun acc s -> acc + s.s_violations) acc c.samples)
    0 results

let sweep =
  {
    Sweep.name = "gc_shootout";
    title = "vCutter vs range tracking vs bounded-space";
    expectation =
      Printf.sprintf
        "the paper's design wins prune completeness in every cell (its rivals eagerly store \
         what vCutter lets die in vBuffer); the bounded backend keeps its resident \
         dead-version checkpoint within K=%d at every sample point; nobody violates prune \
         soundness"
        bounded_k;
    points =
      List.concat_map
        (fun llt ->
          List.concat_map
            (fun skew -> List.map (fun record_bytes -> (llt, skew, record_bytes)) [ 64; 256 ])
            [ 0.; 0.9 ])
        [ 0.5; 2. ];
    run = run_cell;
    columns =
      [
        ("llt_duration_s", fun (llt, _, _) _ -> Jsonx.Float llt);
        ("skew", fun (_, skew, _) _ -> Jsonx.Float skew);
        ("record_bytes", fun (_, _, bytes) _ -> Jsonx.Int bytes);
        ("vcutter_wins_completeness", fun _ c -> Jsonx.Bool c.wins);
        ("bounded_peak_dead", fun _ c -> Jsonx.Int c.peak_dead);
        ("bounded_within_bound", fun _ c -> Jsonx.Bool (c.peak_dead <= bounded_k));
        ("backends", fun _ c -> Jsonx.Arr (List.map backend_json c.samples));
      ];
    fields =
      (fun results ->
        [
          ("engine", Jsonx.Str "pg-vdriver");
          ("vbuffer_bytes", Jsonx.Int vbuffer_bytes);
          ("bounded_k", Jsonx.Int bounded_k);
          ("completeness_upsets", Jsonx.Int (count (fun c -> not c.wins) results));
          ("bound_breaches", Jsonx.Int (count (fun c -> c.peak_dead > bounded_k) results));
          ("violations", Jsonx.Int (violations results));
        ]);
    gates =
      [
        ("vcutter_wins_completeness", Sweep.every (fun _ c -> c.wins));
        ("bounded_within_bound", Sweep.every (fun _ c -> c.peak_dead <= bounded_k));
        ("clean", fun results -> violations results = 0);
      ];
    points_key = "cells";
  }
