(* One driver for the system sweeps (multicore, shard, partition,
   failover, liveness, recovery, gc_shootout).

   A sweep declares its points, how to run one, a single column list and
   named gates. The driver prints the table and writes
   BENCH_<name>.json from the same columns, then evaluates every gate
   over the (point, result) list. A gate is a claim the docs make about
   the sweep; it reads only deterministic Sim-side values or digest
   agreement, so it can fail only when the claim breaks. Gate outcomes
   also land in the JSON as top-level booleans, and [failures] lets the
   entry point turn a broken claim into exit status 1. *)

type ('p, 'r) t = {
  name : string;  (** bench name, banner and JSON file BENCH_<name>.json *)
  title : string;
  expectation : string;
  points : 'p list;
  run : 'p -> 'r;
  columns : (string * ('p -> 'r -> Jsonx.t)) list;
      (** one JSON member per point; scalar members are also table columns *)
  fields : ('p * 'r) list -> (string * Jsonx.t) list;
      (** top-level members between "seed" and the gates *)
  gates : (string * (('p * 'r) list -> bool)) list;
  points_key : string;  (** top-level member holding the per-point array *)
}

(* Every sweep runs this seed; the JSON records it after "bench". *)
let seed = 42

let failed = ref []

let failures () = List.rev !failed

(* The failure path shared by every sweep gate and by checks that sit
   outside a sweep table. *)
let gate ~bench name ok =
  Printf.printf "gate %s: %s\n%!" name (if ok then "ok" else "FAIL");
  if not ok then failed := (bench ^ "." ^ name) :: !failed

let every f results = List.for_all (fun (p, r) -> f p r) results

let rec non_decreasing = function a :: (b :: _ as rest) -> a <= b && non_decreasing rest | _ -> true
let rec decreasing = function a :: (b :: _ as rest) -> a > b && decreasing rest | _ -> true

let cell = function
  | Jsonx.Int n -> string_of_int n
  | Jsonx.Float f when Float.abs f >= 100. -> Printf.sprintf "%.0f" f
  | Jsonx.Float f -> Printf.sprintf "%.3g" f
  | Jsonx.Bool b -> string_of_bool b
  | Jsonx.Str s -> s
  | Jsonx.Null | Jsonx.Arr _ | Jsonx.Obj _ -> "-"

let scalar = function Jsonx.Arr _ | Jsonx.Obj _ -> false | _ -> true

let scalars members = List.filter (fun (_, v) -> scalar v) members

(* Scalar members are columns; nested ones (digests, lag lists) stay in
   the JSON only, except an array of objects, whose scalar members
   become one sub-row per element under the point's own columns. *)
let print_table rows =
  match rows with
  | [] -> ()
  | first :: _ ->
      let nested members =
        List.find_map
          (function _, Jsonx.Arr (Jsonx.Obj _ :: _ as elts) -> Some elts | _ -> None)
          members
      in
      let sub_header =
        match nested first with Some (Jsonx.Obj m :: _) -> List.map fst (scalars m) | _ -> []
      in
      let lines members =
        let own = List.map (fun (_, v) -> cell v) (scalars members) in
        match nested members with
        | None -> [ own ]
        | Some elts ->
            List.map
              (function
                | Jsonx.Obj m -> own @ List.map (fun (_, v) -> cell v) (scalars m) | _ -> own)
              elts
      in
      Table.print
        ~header:(List.map fst (scalars first) @ sub_header)
        (List.concat_map lines rows)

let run s () =
  Common.section ~figure:s.name
    ~title:(Printf.sprintf "%s (BENCH_%s.json)" s.title s.name)
    ~expectation:s.expectation;
  let results = List.map (fun p -> (p, s.run p)) s.points in
  let rows = List.map (fun (p, r) -> List.map (fun (k, f) -> (k, f p r)) s.columns) results in
  print_table rows;
  let verdicts = List.map (fun (g, check) -> (g, check results)) s.gates in
  List.iter (fun (g, ok) -> gate ~bench:s.name g ok) verdicts;
  let file = Printf.sprintf "BENCH_%s.json" s.name in
  Obs_export.write_file file
    (Jsonx.Obj
       ((("bench", Jsonx.Str s.name) :: ("seed", Jsonx.Int seed) :: s.fields results)
       @ List.map (fun (g, ok) -> (g, Jsonx.Bool ok)) verdicts
       @ [ (s.points_key, Jsonx.Arr (List.map (fun row -> Jsonx.Obj row) rows)) ]));
  Printf.printf "-> %s (%d points)\n%!" file (List.length s.points)

(* The sweeps' shared workload: 8 workers on 4 x 250 rows
   under zipf 0.9, one group of [llts] LLTs. Each sweep overrides what
   its axis varies. *)
let workload ~name ~duration_s ~llt_start ~llt_s ~llts =
  {
    Exp_config.default with
    Exp_config.name;
    seed;
    duration_s = Common.sec duration_s;
    workers = 8;
    schema = { Schema.default with Schema.tables = 4; rows_per_table = 250 };
    phases = [ { Exp_config.at_s = 0.; pattern = Access.Zipfian 0.9 } ];
    llts =
      [
        { Exp_config.start_s = Common.sec llt_start; duration_s = Common.sec llt_s; count = llts };
      ];
  }

(* ------------------------------------------------------------------ *)
(* The sharded sweeps run every point twice: in deterministic Sim mode,
   which gives the reported curve, and on real domains, whose digest
   must agree with Sim's. *)

type pair = {
  sim : Shard_runner.result;
  dom : Shard_runner.result;
  violations : int;  (** both sides *)
  mismatches : string list;
  wall_ms : int;  (** the Domains run *)
}

let pair ~label ~domains c =
  let sim = Shard_runner.run ~mode:Shard_runner.Sim c in
  let t0 = Unix.gettimeofday () in
  let dom = Shard_runner.run ~mode:(Shard_runner.Domains { domains }) c in
  let wall_ms = int_of_float ((Unix.gettimeofday () -. t0) *. 1000.) in
  let mismatches = Shard_runner.digest_diff sim.Shard_runner.digest dom.Shard_runner.digest in
  List.iter (fun m -> Printf.printf "!! %s digest mismatch: %s\n" label m) mismatches;
  let violations =
    Fault_report.violation_count sim.Shard_runner.report
    + Fault_report.violation_count dom.Shard_runner.report
  in
  { sim; dom; violations; mismatches; wall_ms }

(* The sharded sweeps' base: two LLTs from a fifth of the run for half
   of it, 10 ms GC, 50 ms samples, 250 ms checkpoints. *)
let sharded ~name ~duration_s =
  {
    (workload ~name ~duration_s ~llt_start:(duration_s /. 5.) ~llt_s:(duration_s /. 2.)
       ~llts:2)
    with
    Exp_config.gc_period = Clock.ms 10;
    sample_period_s = Common.sec 0.05;
    ckpt_period_s = Common.sec 0.25;
  }

(* A sharded sweep's own columns, followed by the pair's. *)
let pair_columns (own : (string * ('p -> pair -> Jsonx.t)) list) =
  own
  @ [
    ("violations", fun _ r -> Jsonx.Int r.violations);
    ("digest_mismatches", fun _ r -> Jsonx.Int (List.length r.mismatches));
    ("domains_digest", fun _ r -> Shard_runner.digest_to_json r.dom.Shard_runner.digest);
    ("wall_ms", fun _ r -> Jsonx.Int r.wall_ms);
  ]

let clean =
  ("clean", fun results -> every (fun _ r -> r.violations = 0 && r.mismatches = []) results)

(* Graceful degradation, not collapse: even the harshest point commits. *)
let degraded_not_dead =
  ("degraded_not_dead", fun results -> every (fun _ r -> r.sim.Shard_runner.commits > 0) results)
