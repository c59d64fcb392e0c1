(* [compare BASE NEW]: one row per workload and end-to-end metric of two
   [core --out] files, judged with the bounds of BENCHMARK.json.

   A metric worse by more than its bound is a regression, unless the
   spread of its samples (interquartile range over the median) in
   either file is wider than the bound: then it is unresolved, unless
   every sample of NEW beats every sample of BASE. Any rise in
   failed_txn_ratio fails, as does a workload that failed its
   correctness checks in either file. Exit code 1 on any failure. *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("compare: " ^ s); exit 2) fmt

let load file =
  let ic = try open_in file with Sys_error e -> die "%s" e in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Jsonx.of_string s with Ok j -> j | Error e -> die "%s: %s" file e

let field key j = match Jsonx.member key j with Some v -> v | None -> die "missing %S" key
let arr j = Option.value ~default:[] (Jsonx.to_arr j)
let str j = Option.value ~default:"" (Jsonx.to_str j)
let num j = Option.value ~default:Float.nan (Jsonx.to_float j)

(* name -> (bound, lower is better) *)
let bounds () =
  List.map
    (fun m -> (str (field "name" m), (num (field "bound" m), str (field "better" m) = "lower")))
    (arr (field "end_to_end" (load "BENCHMARK.json")))

let workloads doc =
  List.map
    (fun w ->
      let metrics =
        List.map
          (fun m -> (str (field "name" m), List.map num (arr (field "samples" m)), num (field "value" m)))
          (arr (field "end_to_end" w))
      in
      (str (field "name" w), (Jsonx.member "correct" w = Some (Jsonx.Bool true), metrics)))
    (arr (field "workloads" doc))

let run ~base ~next =
  let bounds = bounds () in
  let base_w = workloads (load base) and next_w = workloads (load next) in
  let bad = ref false in
  Printf.printf "%-20s %-24s %14s %14s %8s %6s  %s\n" "workload" "metric" "base" "new" "worse" "bound"
    "verdict";
  List.iter
    (fun (wname, (next_ok, next_ms)) ->
      match List.assoc_opt wname base_w with
      | None -> Printf.printf "%-20s (absent from %s)\n" wname base
      | Some (base_ok, base_ms) ->
          if not (base_ok && next_ok) then begin
            bad := true;
            Printf.printf "%-20s FAILED its correctness checks\n" wname
          end;
          List.iter
            (fun (name, (bound, lower)) ->
              match (List.find_opt (fun (n, _, _) -> n = name) base_ms, List.find_opt (fun (n, _, _) -> n = name) next_ms) with
              | Some (_, bs, b), Some (_, ns, n) ->
                  let better x y = if lower then x < y else x > y in
                  let worse = (if lower then n -. b else b -. n) /. Float.abs b in
                  let wide = Float.max (Measure.spread bs) (Measure.spread ns) > bound in
                  let verdict =
                    if name = "failed_txn_ratio" && n > b then "WORSE"
                    else if wide then
                      if List.for_all (fun x -> List.for_all (better x) bs) ns then "better" else "unresolved"
                    else if worse > bound then "REGRESSION"
                    else "ok"
                  in
                  if verdict = "WORSE" || verdict = "REGRESSION" then bad := true;
                  Printf.printf "%-20s %-24s %14.6g %14.6g %7.2f%% %5.1f%%  %s\n" wname name b n
                    (100. *. worse) (100. *. bound) verdict
              | _ -> Printf.printf "%-20s %-24s (missing)\n" wname name)
            bounds)
    next_w;
  if !bad then 1 else 0
