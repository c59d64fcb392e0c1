type violation = { at : Clock.time; invariant : string; detail : string }
type value = Int of int | Float of float | Str of string

type t = {
  max_details : int;
  mutable stored : violation list; (* newest first *)
  mutable stored_count : int;
  mutable total : int;
  mutable checks : int;
  mutable injected : (string * int) list; (* assoc, insertion order *)
  mutable gauges : (string * value) list; (* end-of-run counters, assoc *)
}

let create ?(max_details = 64) () =
  {
    max_details;
    stored = [];
    stored_count = 0;
    total = 0;
    checks = 0;
    injected = [];
    gauges = [];
  }

let record t ~at ~invariant ~detail =
  t.total <- t.total + 1;
  Metrics.bump "fault.violations";
  if Trace.on () then
    Trace.instant Trace.Fault "violation" ~at
      [ ("invariant", Trace.S invariant); ("detail", Trace.S detail) ];
  if t.stored_count < t.max_details then begin
    t.stored <- { at; invariant; detail } :: t.stored;
    t.stored_count <- t.stored_count + 1
  end

let note_check t =
  t.checks <- t.checks + 1;
  Metrics.bump "fault.checks"

let note_fault t name =
  Metrics.bump "fault.injected";
  (match List.assoc_opt name t.injected with
  | Some n -> t.injected <- (name, n + 1) :: List.remove_assoc name t.injected
  | None -> t.injected <- (name, 1) :: t.injected)

let set_gauge t name value = t.gauges <- (name, value) :: List.remove_assoc name t.gauges
let gauge t name = match List.assoc_opt name t.gauges with Some (Int n) -> Some n | _ -> None
let gauges t = List.sort (fun (a, _) (b, _) -> compare a b) t.gauges

let violations t = List.rev t.stored
let violation_count t = t.total
let checks_run t = t.checks
let faults_injected t = List.sort (fun (a, _) (b, _) -> compare a b) t.injected
let ok t = t.total = 0

let pp_value fmt = function
  | Int n -> Format.pp_print_int fmt n
  | Float f -> Format.fprintf fmt "%g" f
  | Str s -> Format.pp_print_string fmt s

let pp fmt t =
  Format.fprintf fmt "@[<v>faults:";
  if t.injected = [] then Format.fprintf fmt " none"
  else
    List.iter (fun (name, n) -> Format.fprintf fmt " %s=%d" name n) (faults_injected t);
  if t.gauges <> [] then begin
    Format.fprintf fmt "@ @[<hov 2>counters:";
    List.iter (fun (name, v) -> Format.fprintf fmt "@ %s=%a" name pp_value v) (gauges t);
    Format.fprintf fmt "@]"
  end;
  Format.fprintf fmt "@ checks=%d violations=%d@ " t.checks t.total;
  List.iter
    (fun v ->
      Format.fprintf fmt "VIOLATION t=%a [%s] %s@ " Clock.pp v.at v.invariant v.detail)
    (violations t);
  if t.total > t.stored_count then
    Format.fprintf fmt "... %d further violations elided@ " (t.total - t.stored_count);
  Format.fprintf fmt "@]"

let to_string t = Format.asprintf "%a" pp t
