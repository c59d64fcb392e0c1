(** The execution substrate a campaign body runs on, and what each
    substrate supports.

    The campaign body ({!Process_set}, behind {!Runner} and
    {!Shard_runner}) is written against the discrete-event
    {!Scheduler}'s task shape. The body needs two capabilities: {!spawn} a process,
    and {!on_dispatch} install the fault harness's poll hook. Either
    substrate provides both:

    - [Sim]: {!Scheduler.spawn} and the scheduler's dispatch probe,
      consulted before every process step. Deterministic, and the body
      runs with no wrapper at all.
    - [Domains]: {!Exec.domains} on real OCaml 5 domains. Each process
      step runs under one engine mutex, so the body's shared state
      (counters, kill switches, the fault report) needs no
      synchronization of its own; the poll hook becomes a task ticking
      every 250 us of virtual time.

    What stays substrate-specific is declared once, in {!table}. *)

type mode =
  | Sim  (** deterministic discrete-event simulation *)
  | Domains of { domains : int }  (** real OCaml 5 parallelism on [domains] domains *)

type t

val create : mode -> t

val spawn : t -> name:string -> at:Clock.time -> (Clock.time -> Scheduler.outcome) -> unit
(** Register a process (see {!Scheduler.spawn}). *)

val every : t -> name:string -> period:Clock.time -> until:Clock.time -> (Clock.time -> unit) -> unit
(** A periodic process: [f now] every [period] from [period] on; the
    first run at or past [until] is the last. *)

val on_dispatch : t -> (name:string -> now:Clock.time -> unit) -> unit
(** Install the fault harness's poll hook: on [Sim] the dispatch probe
    (before every step), on [Domains] a ["faults"] task every 250 us. *)

val run : t -> until:Clock.time -> Clock.time
(** Run every process up to [until]. On [Domains] a process that raises
    is retired and the first exception is re-raised after the join. *)

val now : t -> Clock.time
(** Last dispatched wake-up ([Sim]) or the frontier ([Domains]). *)

(** {1 Capability table} *)

type feature =
  | Crash_faults
      (** crash points, 2PC crash steps and torn tails; a Poisson
          [Crash] arrival on an unsupporting substrate is recorded as
          [crash-skipped] *)
  | Watchdog  (** the liveness ladder with its stalls, zombies and leases *)
  | Direct_lag_monitor
      (** the bounded-reclamation-lag monitor armed by the fault plan
          itself rather than by the watchdog *)
  | Obs_export  (** trace and metrics export *)

type row = { feature : feature; name : string; sim : bool; domains : bool; why : string }

val table : row list
(** One row per substrate-specific feature, with the reason it is. *)

val supports : mode -> feature -> bool

val unsupported : mode -> (feature * bool) list -> string option
(** Given features paired with whether the caller requests them, the
    reason the first requested one is unavailable on [mode]; also
    rejects a domain count below 1. *)

val require : who:string -> mode -> (feature * bool) list -> unit
(** {!unsupported} as [Invalid_argument "<who>: <reason>"]. *)
