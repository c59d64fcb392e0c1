(* SIGPROF stack sampler: attributes host CPU time to the repo's layers
   from outside the library code.

   Every millisecond of process CPU time the kernel raises SIGPROF. The
   OCaml runtime runs the handler at the interrupted code's next poll
   point; the handler captures the call stack and maps each frame's
   source file [lib/<dir>/<module>.ml] to the layer [<dir>.<module>].
   A sample's self layer is its innermost repo frame, so time spent in
   the standard library counts for the repo function that called it.
   Every directory and module with a frame on the stack gets one
   inclusive hit per sample. A sample with no repo frame at all is
   unattributed; [coverage] is the attributed share. *)

type t = {
  mutable total : int;
  mutable attributed : int;
  self : (string, int) Hashtbl.t;  (** module layer -> samples *)
  incl : (string, int) Hashtbl.t;  (** directory and module layers -> samples *)
}

let create () =
  { total = 0; attributed = 0; self = Hashtbl.create 64; incl = Hashtbl.create 64 }

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* "lib/storage/wal.ml" -> ("storage", "storage.wal"). *)
let layer_of_file file =
  match String.split_on_char '/' file with
  | [ "lib"; dir; ml ] when Filename.check_suffix ml ".ml" ->
      Some (dir, dir ^ "." ^ Filename.chop_suffix ml ".ml")
  | _ -> None

(* One return address can stand for several source frames when the
   compiler inlined calls; they come innermost first. *)
let layers_of_entry cache entry =
  let key = (entry : Printexc.raw_backtrace_entry :> int) in
  match Hashtbl.find_opt cache key with
  | Some ls -> ls
  | None ->
      let ls =
        match Printexc.backtrace_slots_of_raw_entry entry with
        | None -> []
        | Some slots ->
            Array.to_list slots
            |> List.filter_map (fun s ->
                   Option.bind (Printexc.Slot.location s) (fun l ->
                       layer_of_file l.Printexc.filename))
      in
      Hashtbl.add cache key ls;
      ls

let max_depth = 512

let sample t cache =
  let entries = Printexc.raw_backtrace_entries (Printexc.get_callstack max_depth) in
  t.total <- t.total + 1;
  let self = ref None and seen = ref [] in
  Array.iter
    (fun e ->
      List.iter
        (fun (dir, m) ->
          if !self = None then self := Some m;
          List.iter
            (fun k -> if not (List.mem k !seen) then seen := k :: !seen)
            [ dir; m ])
        (layers_of_entry cache e))
    entries;
  match !self with
  | None -> ()
  | Some m ->
      t.attributed <- t.attributed + 1;
      bump t.self m;
      List.iter (bump t.incl) !seen

let period_s = 0.001

(* Sample while [f] runs; the timer and handler are gone afterwards. *)
let with_sampling t f =
  let cache = Hashtbl.create 4096 in
  let timer v = ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = v; it_value = v }) in
  Sys.set_signal Sys.sigprof (Sys.Signal_handle (fun _ -> sample t cache));
  timer period_s;
  Fun.protect
    ~finally:(fun () ->
      timer 0.;
      Sys.set_signal Sys.sigprof Sys.Signal_ignore)
    f

let coverage t = if t.total = 0 then 0. else float_of_int t.attributed /. float_of_int t.total

let merge a b =
  let add dst src = Hashtbl.iter (fun k v -> Hashtbl.replace dst k (v + Option.value ~default:0 (Hashtbl.find_opt dst k))) src in
  add a.self b.self;
  add a.incl b.incl;
  a.total <- a.total + b.total;
  a.attributed <- a.attributed + b.attributed

let pct t tbl key =
  if t.total = 0 then 0.
  else 100. *. float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl key)) /. float_of_int t.total
