type value = Fault_report.value = Int of int | Float of float | Str of string

type rule =
  | Exact
  | Zero
  | At_most of int
  | At_least of int
  | Within of float * float
  | Presence
  | Report

type row = { name : string; value : value; rule : rule }
type t = row list

let int ?(rule = Report) name n = { name; value = Int n; rule }
let float ?(rule = Report) name f = { name; value = Float f; rule }
let str ?(rule = Report) name s = { name; value = Str s; rule }
let row t name = List.find_opt (fun r -> r.name = name) t
let find t name = Option.map (fun r -> r.value) (row t name)
let get_int t name = match find t name with Some (Int n) -> n | _ -> 0

let recovery ~crashes (infos : Engine.restart_info list) =
  if crashes = 0 then []
  else
    let sum f = List.fold_left (fun acc i -> acc + f i) 0 infos in
    [
      int "recovery.crashes" crashes;
      int "recovery.replayed" (sum (fun i -> i.Engine.replayed_records));
      int "recovery.versions" (sum (fun i -> i.Engine.replayed_versions));
      int "recovery.truncated" (sum (fun i -> i.Engine.truncated_frames));
      int "recovery.losers" (sum (fun i -> i.Engine.losers_rolled_back));
    ]

(* A name "b.k" is key "k" of block "b"; an undotted name has no
   block. *)
let split name =
  match String.index_opt name '.' with
  | Some i -> Some (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
  | None -> None

let block name = Option.map fst (split name)

let json_of_value = function
  | Int n -> Jsonx.Int n
  | Float f -> Jsonx.Float f
  | Str s -> Jsonx.Str s

(* Each block becomes one nested object, placed where its first row
   stands. *)
let to_json t =
  let rec members = function
    | [] -> []
    | r :: rest -> (
        match split r.name with
        | None -> (r.name, json_of_value r.value) :: members rest
        | Some (b, _) ->
            let inside, outside = List.partition (fun r' -> block r'.name = Some b) rest in
            let key r = match split r.name with Some (_, k) -> k | None -> r.name in
            (b, Jsonx.Obj (List.map (fun r -> (key r, json_of_value r.value)) (r :: inside)))
            :: members outside)
  in
  Jsonx.Obj (members t)

let pp fmt t =
  let pp_row fmt r = Format.fprintf fmt "%s=%a" r.name Fault_report.pp_value r.value in
  Format.fprintf fmt "@[<hov 2>%a@]" (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_row) t

let publish report t = List.iter (fun r -> Fault_report.set_gauge report r.name r.value) t
let num = function Int n -> float_of_int n | Float f -> f | Str _ -> 0.

(* One-run rules hold for each run that carries the row; two-run rules
   compare only when both do. *)
let agree rule x y =
  let each p = List.for_all (fun v -> p (num v)) (Option.to_list x @ Option.to_list y) in
  match (rule, x, y) with
  | Zero, _, _ -> each (fun v -> v = 0.)
  | At_most n, _, _ -> each (fun v -> v <= float_of_int n)
  | At_least n, _, _ -> each (fun v -> v >= float_of_int n)
  | Exact, Some x, Some y -> x = y
  | Within (rel, abs), Some x, Some y ->
      let x = num x and y = num y in
      Float.abs (x -. y) <= Float.max abs (rel *. Float.max (Float.abs x) (Float.abs y))
  | Presence, Some x, Some y -> (num x = 0.) = (num y = 0.)
  | _ -> true

let describe = function
  | Exact -> "must be equal"
  | Zero -> "must be 0"
  | At_most n -> Printf.sprintf "at most %d" n
  | At_least n -> Printf.sprintf "at least %d" n
  | Within (rel, abs) -> Printf.sprintf "tol rel=%.2f abs=%g" rel abs
  | Presence -> "zero in one run only"
  | Report -> "report only"

(* Blocks that carry a compared row: the configured layers (net, repl)
   whose presence is part of the experiment. *)
let compared_blocks t =
  List.sort_uniq compare
    (List.filter_map (fun r -> if r.rule = Report then None else block r.name) t)

let diff a b =
  let mode t = match find t "mode" with Some (Str m) -> m | _ -> "?" in
  let show v = Option.fold ~none:"-" ~some:(Format.asprintf "%a" Fault_report.pp_value) v in
  let rows =
    List.filter_map
      (fun r ->
        let x = find a r.name and y = find b r.name in
        if agree r.rule x y then None
        else
          Some
            (Printf.sprintf "%s: %s=%s vs %s=%s (%s)" r.name (mode a) (show x) (mode b) (show y)
               (describe r.rule)))
      (a @ List.filter (fun r -> row a r.name = None) b)
  in
  let only bs others m =
    List.filter_map
      (fun bl ->
        if List.mem bl others then None else Some (Printf.sprintf "%s: present in %s only" bl m))
      bs
  in
  let ba = compared_blocks a and bb = compared_blocks b in
  rows @ only ba bb (mode a) @ only bb ba (mode b)
