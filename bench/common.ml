(* Shared plumbing for the per-figure benchmark harnesses.

   Time compression: the paper's runs last 90-700 wall-clock seconds on
   a 96-core server. We shrink the table (8 tables x 500 rows instead of
   48 x 1000) and the run length so per-record update rates — which is
   what drives version-chain growth over an LLT's lifetime — match the
   paper's regime within seconds of simulated time. REPRO_SCALE
   stretches or shrinks every duration (default 1.0). A value that is
   not a positive finite number would give zero, negative or NaN
   durations: it stops the harness with exit 2 before any bench runs. *)

let scale =
  match Sys.getenv_opt "REPRO_SCALE" with
  | None -> 1.0
  | Some s -> (
      match float_of_string_opt s with
      | Some x when Float.is_finite x && x > 0. -> x
      | Some _ | None ->
          Printf.eprintf "REPRO_SCALE=%S: want a positive finite number\n" s;
          exit 2)

let sec x = x *. scale

let small_schema = { Schema.default with Schema.tables = 8; rows_per_table = 500 }

let make_engine name schema =
  match List.assoc_opt name Engine_table.all with
  | Some create -> create State.default_config schema
  | None -> invalid_arg ("unknown engine " ^ name)

let section ~figure ~title ~expectation =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s — %s\n" figure title;
  Printf.printf "Paper expectation: %s\n" expectation;
  Printf.printf "==============================================================\n%!"

(* Average of a series over a scaled window. *)
let window r ~lo ~hi = Runner.avg_throughput r ~between:(sec lo, sec hi)

let value_at series t =
  let rec closest best = function
    | [] -> best
    | (x, v) :: rest ->
        let best =
          match best with
          | Some (bx, _) when abs_float (bx -. t) <= abs_float (x -. t) -> best
          | _ -> Some (x, v)
        in
        closest best rest
  in
  match closest None series with Some (_, v) -> v | None -> 0.

let fmt_tput v = Printf.sprintf "%.0f" v
let fmt_ratio a b = if b <= 0. then "-" else Printf.sprintf "%.1fx" (a /. b)

(* Print one series table with a column per run. *)
let print_multi_series ~col_name ~every runs extract =
  let times =
    match runs with
    | [] -> []
    | (_, r) :: _ -> List.filter_map (fun (t, _) -> if Float.rem t every < 0.5 then Some t else None) (extract r)
  in
  let header = "sec" :: List.map (fun (name, _) -> col_name name) runs in
  let rows =
    List.map
      (fun t ->
        Printf.sprintf "%.0f" t
        :: List.map (fun (_, r) -> Printf.sprintf "%.0f" (value_at (extract r) t)) runs)
      times
  in
  Table.print ~header rows
