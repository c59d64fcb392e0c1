type mode = Sim | Domains of { domains : int }

type t = On_sim of Scheduler.t | On_domains of { exec : Exec.t; lock : Mutex.t }

let create = function
  | Sim -> On_sim (Scheduler.create ())
  | Domains { domains } -> On_domains { exec = Exec.domains ~domains (); lock = Mutex.create () }

(* On domains every step holds the engine mutex for its whole length
   (DESIGN §4f). The wrapper is built once per process, at spawn. *)
let spawn t ~name ~at step =
  match t with
  | On_sim s -> Scheduler.spawn s ~name ~at step
  | On_domains { exec; lock } ->
      Exec.spawn exec ~name ~at (fun now ->
          Mutex.lock lock;
          match step now with
          | outcome ->
              Mutex.unlock lock;
              outcome
          | exception exn ->
              Mutex.unlock lock;
              raise exn)

let every t ~name ~period ~until f =
  spawn t ~name ~at:period (fun now ->
      f now;
      if now >= until then Scheduler.Finished else Scheduler.Sleep_until (now + period))

let fault_tick = Clock.us 250

let on_dispatch t probe =
  match t with
  | On_sim s -> Scheduler.set_probe s probe
  | On_domains _ ->
      spawn t ~name:"faults" ~at:fault_tick (fun now ->
          probe ~name:"faults" ~now;
          Scheduler.Sleep_until (now + fault_tick))

let run t ~until =
  match t with
  | On_sim s -> Scheduler.run s ~until
  | On_domains { exec; _ } -> Exec.run exec ~until

let now = function On_sim s -> Scheduler.now s | On_domains { exec; _ } -> Exec.frontier exec

type feature = Crash_faults | Watchdog | Direct_lag_monitor | Obs_export

type row = { feature : feature; name : string; sim : bool; domains : bool; why : string }

let table =
  [
    {
      feature = Crash_faults;
      name = "crash injection";
      sim = true;
      domains = false;
      why =
        "crash points fire at exact dispatch boundaries and 2PC steps, which only the \
         deterministic scheduler reproduces";
    };
    {
      feature = Watchdog;
      name = "the watchdog ladder";
      sim = true;
      domains = false;
      why =
        "its stall injections and stop-the-world restart rung assume the discrete-event \
         scheduler";
    };
    {
      feature = Direct_lag_monitor;
      name = "the plan-armed lag monitor";
      sim = false;
      domains = true;
      why =
        "Sim arms the monitor through the watchdog only, so watchdog-free Sim runs keep \
         their exact bytes";
    };
    {
      feature = Obs_export;
      name = "trace/metrics export";
      sim = true;
      domains = false;
      why = "the trace ring and the golden metrics assume one dispatching thread";
    };
  ]

let row f = List.find (fun r -> r.feature = f) table
let supports mode f = match mode with Sim -> (row f).sim | Domains _ -> (row f).domains

let unsupported mode requested =
  match mode with
  | Domains { domains } when domains < 1 -> Some "need at least one domain"
  | _ -> (
      match List.find_opt (fun (f, wanted) -> wanted && not (supports mode f)) requested with
      | None -> None
      | Some (f, _) ->
          let r = row f in
          Some
            (Printf.sprintf "%s %s (%s)" r.name
               (if r.sim then "is Sim-only" else "is Domains-only")
               r.why))

let require ~who mode requested =
  match unsupported mode requested with
  | None -> ()
  | Some reason -> invalid_arg (who ^ ": " ^ reason)
