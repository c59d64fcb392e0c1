type kind = Vcutter | Range | Bounded

type config = {
  kind : kind;
  sabotage : bool;
  bounded_max_dead : int;
}

let default_config =
  { kind = Vcutter; sabotage = false; bounded_max_dead = 256 }

let kind_name = function Vcutter -> "vcutter" | Range -> "range" | Bounded -> "bounded"
let kind_id = function Vcutter -> 0 | Range -> 1 | Bounded -> 2
let all_kinds = [ Vcutter; Range; Bounded ]

let kind_of_string = function
  | "vcutter" -> Ok Vcutter
  | "range" -> Ok Range
  | "bounded" -> Ok Bounded
  | s ->
      Error
        (`Msg
          (Printf.sprintf "unknown GC backend %S (expected vcutter, range or bounded)" s))

let install (d : Driver.t) (cfg : config) =
  let st : State.t = d in
  let hook =
    match cfg.kind with
    | Vcutter -> Vcutter_backend.hook st ~sabotage:cfg.sabotage
    | Range -> Range_track_backend.hook st ~sabotage:cfg.sabotage
    | Bounded -> Bounded_backend.hook st ~sabotage:cfg.sabotage ~max_dead:cfg.bounded_max_dead
  in
  st.State.gc_backend <- Some hook

let uninstall (d : Driver.t) =
  let st : State.t = d in
  st.State.gc_backend <- None

let installed_name (d : Driver.t) = State.gc_backend_name d

let gauges (d : Driver.t) =
  let st : State.t = d in
  match st.State.gc_backend with Some h -> h.State.gh_gauges () | None -> []

let frontier (d : Driver.t) =
  let st : State.t = d in
  match st.State.gc_backend with Some h -> Some (h.State.gh_frontier ()) | None -> None

(* Wrap an engine factory so every driver the runner builds gets the
   backend installed before the workload starts. The runner constructs
   engines internally, so this is the composition point for CLIs,
   benches and tests. *)
let wrap_engine cfg engine schema =
  let e = engine schema in
  (match e.Engine.driver with Some d -> install d cfg | None -> ());
  e
