(** Discrete-event scheduler.

    Processes (transaction workers, long-lived transaction drivers,
    background cleaners, metric samplers) each carry a wake-up time. The
    scheduler repeatedly advances the process with the earliest wake-up
    time, asking it to perform one unit of work and report when it next
    wants to run. Ties are broken by registration order, which keeps
    whole runs deterministic. *)

type t

type outcome =
  | Sleep_until of Clock.time  (** run me again no earlier than this *)
  | Finished  (** deregister this process *)

val create : unit -> t

val spawn : t -> name:string -> at:Clock.time -> (Clock.time -> outcome) -> unit
(** [spawn t ~name ~at step] registers a process whose [step now] is
    called when its wake-up time is reached; [now] is its wake-up time.
    [Sleep_until t'] with [t' <= now] advances the clock by 1 ns to
    guarantee progress. *)

val set_probe : t -> (name:string -> now:Clock.time -> unit) -> unit
(** Install a dispatch probe: called immediately before every process
    step with the process name and its wake-up time. This is the fault
    harness's consultation point — a fault plan armed here sees every
    scheduling decision and can inject per-step faults deterministically.
    The probe must not call back into the scheduler. *)


val run : t -> until:Clock.time -> Clock.time
(** Run processes in time order until every process has finished or the
    next wake-up exceeds [until]. Returns the simulated time reached. *)

val now : t -> Clock.time
(** The current simulated time (last dispatched wake-up). *)
