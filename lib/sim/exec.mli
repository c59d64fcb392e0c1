(** Real-parallelism execution substrate.

    The discrete-event [Scheduler] totally orders every process step on
    one thread. [Exec] runs the same task shape — a step function plus
    a virtual wake-up time, returning a {!Scheduler.outcome} — on
    {e real} OCaml 5 domains instead, while keeping the virtual clocks
    of all tasks coupled within a bounded skew window (a conservative
    time-window parallel simulation).

    {!domains} maps tasks round-robin onto [n] real [Domain.t]s. Each
    domain steps its own tasks in local wake-up order, but a task may
    only be stepped while its wake-up time is within [window] of the
    global frontier (the minimum published clock over all live tasks).
    Clocks are published through [Atomic] cells, and a domain that runs
    ahead of the window yields, then naps, until the frontier catches
    up. [Exec] itself takes no lock around a step: callers that share
    state between tasks serialize the steps themselves (the campaign
    runners hold one engine mutex per step, DESIGN §4f).

    Progress: the task holding the global minimum clock is always
    eligible, so some domain can always step; a task whose step raises
    is retired (its clock leaves the frontier) and the exception is
    re-raised from {!run} after every domain has joined, so a crashed
    task can never wedge the window for the others. *)

type t

type outcome = Scheduler.outcome =
  | Sleep_until of Clock.time  (** run me again no earlier than this *)
  | Finished  (** retire this task *)

val domains : ?window:Clock.time -> domains:int -> unit -> t
(** Substrate on [domains] OCaml 5 domains (at least 1, else
    [Invalid_argument]). [window] is the maximum virtual-time skew a
    task may run ahead of the global frontier. The default (25 us,
    about a quarter of a short-transaction latency) was calibrated on
    the differential harness: at 2 ms the out-of-order latch arrivals
    inflate queueing enough to depress throughput ~30% below the Sim
    model, and even at 100 us a 3-domain run on a hot small table
    still lands ~20% low (the inflated queueing shows up as a deeper
    chain peak and fatter latency tail); at 25 us every differential
    case agrees to well under 1% while still letting every runnable
    task proceed concurrently. *)

val spawn : t -> name:string -> at:Clock.time -> (Clock.time -> outcome) -> unit
(** Register a task. As in {!Scheduler.spawn}, the step receives its
    wake-up time and a [Sleep_until t'] with [t' <= now] advances the
    clock by 1 ns to guarantee progress. All spawns must precede
    {!run}; spawning after the run has started raises. *)

val run : t -> until:Clock.time -> Clock.time
(** Execute every task until it finishes or its next wake-up exceeds
    [until]: spawn the domains, drive the window protocol and join them
    all before returning (so every task-local effect is visible to the
    caller afterwards). Returns the largest wake-up time dispatched. If
    any task raised, the first such exception (by task spawn order) is
    re-raised after the join. Can only be called once per [t]. *)

val frontier : t -> Clock.time
(** The global frontier: minimum published clock over unfinished tasks
    ([until] passed to {!run} once every task has retired). Monotone,
    safe to read from any domain. *)

val max_skew_observed : t -> Clock.time
(** Largest [wake-up - frontier] skew any dispatched step ran at; the
    window-respect tests assert it never exceeds [window]. *)

val steps : t -> int
(** Total task steps dispatched (across all domains). *)
