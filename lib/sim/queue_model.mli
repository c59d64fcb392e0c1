(** Analytic contention model for short-hold global latches.

    The FIFO {!Resource} is exact for latches whose holders are spread
    across many instances (page latches), but a single global latch
    touched by every transaction amplifies the simulator's step
    granularity into false serialization. For those (MySQL's
    rollback-segment mutex), we instead measure utilization over a
    sliding window and charge each acquisition its hold time plus the
    M/M/1-style expected queueing delay [rho / (1 - rho) * hold / 2]. *)

type t

val create : ?window:Clock.time -> unit -> t
(** [window] defaults to 100 ms of simulated time. *)

val service : t -> now:Clock.time -> hold:Clock.time -> Clock.time
(** Returns the completion time [now + hold + expected delay]. *)

val utilization : t -> float
(** Current windowed utilization estimate, in [0, 0.95]. *)

val busy_time : t -> Clock.time
(** Total hold time accumulated over the run. *)
