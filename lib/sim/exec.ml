(* Real-parallelism substrate: the same (wake-time, step) task shape as
   the discrete-event Scheduler, run on OCaml 5 domains under a bounded
   virtual-time skew window.

   Window protocol. Every task publishes its next wake-up time in an
   Atomic cell ([max_int] once retired). The global frontier is the
   minimum over those cells. A domain may dispatch one of its tasks iff
   the task's wake-up is <= frontier + window. The task that *holds* the
   frontier always satisfies this, so at least one domain can always
   make progress and the protocol cannot deadlock. Monotonicity: a step
   at time t only ever publishes a strictly larger time (Sleep_until in
   the past is bumped to t+1, as in Scheduler), so the frontier never
   moves backwards.

   All cross-domain state here — the clock cells, the skew/step
   telemetry — is sequentially-consistent Atomics; everything else is
   owned by exactly one domain for the whole run. *)

type outcome = Scheduler.outcome = Sleep_until of Clock.time | Finished

type task = {
  name : string;
  seq : int;
  step : Clock.time -> outcome;
  clock : int Atomic.t;  (* next wake-up; max_int = retired *)
}

type t = {
  domains : int;
  window : Clock.time;
  mutable tasks : task list;  (* reverse spawn order until [run] *)
  mutable started : bool;
  max_skew : int Atomic.t;
  steps_total : int Atomic.t;
  frontier_cache : int Atomic.t;  (* last frontier computed; for [frontier] *)
}

(* 25 us — see the calibration note in exec.mli. *)
let default_window = Clock.us 25

let domains ?(window = default_window) ~domains () =
  if domains < 1 then invalid_arg "Exec.domains: need at least one domain";
  {
    domains;
    window;
    tasks = [];
    started = false;
    max_skew = Atomic.make 0;
    steps_total = Atomic.make 0;
    frontier_cache = Atomic.make 0;
  }

let max_skew_observed t = Atomic.get t.max_skew
let steps t = Atomic.get t.steps_total

let spawn t ~name ~at step =
  if t.started then invalid_arg "Exec.spawn: run already started";
  let seq = List.length t.tasks in
  t.tasks <- { name; seq; step; clock = Atomic.make at } :: t.tasks

let frontier_of clocks =
  Array.fold_left (fun acc c -> min acc (Atomic.get c)) max_int clocks

let frontier t = Atomic.get t.frontier_cache

let note_skew t skew =
  let rec bump () =
    let cur = Atomic.get t.max_skew in
    if skew > cur && not (Atomic.compare_and_set t.max_skew cur skew) then
      bump ()
  in
  if skew > 0 then bump ()

(* Dispatch [task] at its current wake-up time; returns the time it ran
   at, or [None] if it was already retired. Exceptions retire the task
   (so it leaves the frontier and cannot wedge the window) and are
   stashed for re-raising after the join. *)
let dispatch t ~until task (failures : (int * exn) option Atomic.t) =
  let now = Atomic.get task.clock in
  if now = max_int then None
  else begin
    Atomic.incr t.steps_total;
    (match
       try Ok (task.step now) with exn -> Error exn
     with
    | Ok Finished -> Atomic.set task.clock max_int
    | Ok (Sleep_until next) ->
        let next = if next > now then next else now + 1 in
        Atomic.set task.clock (if next > until then max_int else next)
    | Error exn ->
        Atomic.set task.clock max_int;
        let rec stash () =
          match Atomic.get failures with
          | Some (seq, _) when seq <= task.seq -> ()
          | cur ->
              if not (Atomic.compare_and_set failures cur (Some (task.seq, exn)))
              then stash ()
        in
        stash ());
    Some now
  end

let run_domains t ~until failures =
  let n = t.domains in
  let tasks = Array.of_list (List.rev t.tasks) in
  let clocks = Array.map (fun task -> task.clock) tasks in
  let last = Atomic.make 0 in
  let body did () =
    let mine =
      Array.of_list
        (List.filter (fun task -> task.seq mod n = did) (Array.to_list tasks))
    in
    let spins = ref 0 in
    let continue = ref (Array.length mine > 0) in
    while !continue do
      (* Earliest of my own live tasks. *)
      let best = ref None in
      Array.iter
        (fun task ->
          let c = Atomic.get task.clock in
          if c <> max_int then
            match !best with
            | Some (bc, _) when bc <= c -> ()
            | _ -> best := Some (c, task))
        mine;
      match !best with
      | None -> continue := false
      | Some (wake, task) ->
          let frontier = frontier_of clocks in
          Atomic.set t.frontier_cache frontier;
          if wake <= frontier + t.window then begin
            spins := 0;
            note_skew t (wake - frontier);
            match dispatch t ~until task failures with
            | Some now ->
                let rec bump () =
                  let cur = Atomic.get last in
                  if now > cur && not (Atomic.compare_and_set last cur now)
                  then bump ()
                in
                bump ()
            | None -> ()
          end
          else begin
            (* Ahead of the window: back off until the frontier domain
               catches up. Spin politely first, then nap so a long
               straggler step doesn't burn a core. *)
            incr spins;
            if !spins < 256 then Domain.cpu_relax ()
            else begin
              spins := 0;
              Unix.sleepf 20e-6
            end
          end
    done
  in
  let workers = Array.init n (fun did -> Domain.spawn (body did)) in
  Array.iter Domain.join workers;
  Atomic.set t.frontier_cache until;
  Atomic.get last

let run t ~until =
  if t.started then invalid_arg "Exec.run: already run";
  t.started <- true;
  let failures = Atomic.make None in
  let last = run_domains t ~until failures in
  (match Atomic.get failures with
  | Some (_, exn) -> raise exn
  | None -> ());
  last
