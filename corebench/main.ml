(* The core benchmark: four seeded Sim-mode workloads, end-to-end
   metrics a user of the system sees, and a traced run that attributes
   host time to the repo's layers.

     dune exec corebench/main.exe -- core [--seed N] [--reps K] [--trace] [--out FILE]
     dune exec corebench/main.exe -- compare BASE.json NEW.json
     bash corebench/run.sh --workload W --seed N --seconds S --trace 0|1

   [core] runs every workload, prints its metrics and exits 1 if a
   correctness check fails. [compare] judges NEW against BASE with the
   bounds of BENCHMARK.json. The last form measures one workload for
   about S seconds and prints a one-line JSON result as the last line
   of its output; it is the command BENCHMARK.json names. See
   corebench/README.md. *)

let usage () =
  prerr_endline
    "usage: main.exe core [--seed N] [--reps K] [--trace] [--out FILE]\n\
    \       main.exe compare BASE.json NEW.json\n\
    \       main.exe --workload W --seed N --seconds S --trace 0|1";
  exit 2

(* "--key value" pairs and bare "--flag"s. *)
let rec options = function
  | [] -> []
  | k :: v :: rest when String.length v < 2 || String.sub v 0 2 <> "--" -> (k, Some v) :: options rest
  | k :: rest -> (k, None) :: options rest

let opt_int opts key ~default =
  match List.assoc_opt key opts with
  | Some (Some v) -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  | Some None -> usage ()
  | None -> default

let workload_exn name =
  match Workloads.find name with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" name
        (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
      exit 2

let json_num v = if Float.is_finite v then Jsonx.Float v else Jsonx.Null

let print_failures (t : Measure.tally) =
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) (List.rev t.Measure.failures)

(* ---- one workload, for the command BENCHMARK.json names ---- *)

let run_workload opts =
  let str key = match List.assoc_opt key opts with Some (Some v) -> v | _ -> usage () in
  let w = workload_exn (str "--workload") in
  let seed = opt_int opts "--seed" ~default:42 in
  let seconds = float_of_int (opt_int opts "--seconds" ~default:20) in
  let trace = opt_int opts "--trace" ~default:0 = 1 in
  let t = Measure.tally () in
  let metrics =
    if trace then begin
      let l = Measure.measure_layers t w ~seed ~seconds in
      Measure.complete_layers (l.Measure.values @ Micro.run ())
    end
    else
      List.map
        (fun m -> (m.Measure.name, m.Measure.unit, m.Measure.value))
        (Measure.measure_end_to_end t w ~seed ~min_passes:1 ~seconds)
  in
  List.iter (fun (n, u, v) -> Printf.printf "%-44s %16.6g %s\n" n v u) metrics;
  print_failures t;
  let failed = List.length t.Measure.failures in
  let correct = failed = 0 in
  print_endline
    (Jsonx.to_string
       (Jsonx.Obj
          [
            ("correct", Jsonx.Bool correct);
            ("attempted", Jsonx.Int (max 1 t.Measure.attempted));
            ("failed", Jsonx.Int failed);
            ( "metrics",
              Jsonx.Obj
                (List.map
                   (fun (n, u, v) -> (n, Jsonx.Obj [ ("value", json_num v); ("unit", Jsonx.Str u) ]))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)

(* ---- every workload ---- *)

let core opts =
  let seed = opt_int opts "--seed" ~default:42 in
  let reps = max 1 (opt_int opts "--reps" ~default:1) in
  let trace = List.mem_assoc "--trace" opts in
  let out = match List.assoc_opt "--out" opts with Some (Some f) -> Some f | Some None -> usage () | None -> None in
  let micro = if trace then Micro.run () else [] in
  let reports =
    List.map
      (fun (w : Workloads.t) ->
        let t = Measure.tally () in
        Printf.printf "\n== %s (%d campaigns from seed %d): %s\n%!" w.Workloads.name
          w.Workloads.campaigns seed w.Workloads.why;
        let e2e = Measure.measure_end_to_end t w ~seed ~min_passes:reps ~seconds:0. in
        List.iter
          (fun m ->
            Printf.printf "  %-24s %16.6g %-6s spread %5.1f%%\n" m.Measure.name m.Measure.value
              m.Measure.unit (100. *. Measure.spread m.Measure.samples))
          e2e;
        let layers =
          if not trace then None
          else begin
            let l = Measure.measure_layers t w ~seed ~seconds:Float.infinity in
            Printf.printf "  host time by module (self / inclusive, %% of samples; coverage %.1f%%)\n"
              (100. *. l.Measure.coverage);
            List.iter
              (fun (m, s, i) -> if i >= 1. then Printf.printf "    %-28s %5.1f %5.1f\n" m s i)
              l.Measure.modules;
            List.iter
              (fun (n, v) -> if v <> 0. then Printf.printf "    %-44s %g\n" n v)
              (List.filter (fun (n, _) -> not (String.ends_with ~suffix:"_pct" n)) l.Measure.values);
            Some l
          end
        in
        print_failures t;
        (w, t, e2e, layers))
      Workloads.all
  in
  let ok = List.for_all (fun (_, t, _, _) -> t.Measure.failures = []) reports in
  let report_json ((w : Workloads.t), (t : Measure.tally), e2e, layers) =
    let metric m =
      Jsonx.Obj
        [
          ("name", Jsonx.Str m.Measure.name);
          ("unit", Jsonx.Str m.Measure.unit);
          ("value", json_num m.Measure.value);
          ("samples", Jsonx.Arr (List.map json_num m.Measure.samples));
        ]
    in
    Jsonx.Obj
      ([
         ("name", Jsonx.Str w.Workloads.name);
         ("correct", Jsonx.Bool (t.Measure.failures = []));
         ("attempted", Jsonx.Int t.Measure.attempted);
         ("failures", Jsonx.Arr (List.map (fun f -> Jsonx.Str f) t.Measure.failures));
         ("end_to_end", Jsonx.Arr (List.map metric e2e));
       ]
      @
      match layers with
      | None -> []
      | Some l ->
          [
            ( "per_layer",
              Jsonx.Obj
                (List.map
                   (fun (n, _, v) -> (n, json_num v))
                   (Measure.complete_layers (l.Measure.values @ micro))) );
          ])
  in
  Option.iter
    (fun file ->
      let doc =
        Jsonx.Obj
          [
            ("seed", Jsonx.Int seed);
            ("reps", Jsonx.Int reps);
            ("workloads", Jsonx.Arr (List.map report_json reports));
          ]
      in
      let oc = open_out file in
      output_string oc (Jsonx.to_string doc);
      output_char oc '\n';
      close_out oc)
    out;
  if micro <> [] then begin
    print_endline "\n== micro-benchmarks";
    List.iter (fun (n, v) -> Printf.printf "  %-40s %12.1f ns\n" n v) micro
  end;
  Printf.printf "\ncore: %s\n" (if ok then "all checks passed" else "FAILED");
  exit (if ok then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "child"; workload; seed; traced ] ->
      Measure.child_main (workload_exn workload) ~seed:(int_of_string seed) ~traced:(traced = "1")
  | "core" :: rest -> core (options rest)
  | [ "compare"; base; next ] -> exit (Compare.run ~base ~next)
  | args when List.mem "--workload" args -> run_workload (options args)
  | _ -> usage ()
