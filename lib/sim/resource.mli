(** A contended exclusive resource with FIFO service — the simulation
    stand-in for a page latch or a global mutex.

    A caller arriving at simulated time [now] that wants to hold the
    resource for [hold] nanoseconds is granted it at
    [max now free_at]; the resource then stays busy until the grant time
    plus [hold]. Cumulative wait and busy times are tracked so latch
    contention (the MySQL collapse mechanism in the paper, §2.1) is both
    reproduced and measurable. *)

type t

val create : unit -> t

val acquire : t -> now:Clock.time -> hold:Clock.time -> Clock.time
(** [acquire r ~now ~hold] returns the simulated time at which the caller
    has finished its critical section ([grant + hold]). *)

val busy_time : t -> Clock.time
(** Total simulated time the resource has been held. *)

val wait_time : t -> Clock.time
(** Total simulated time callers spent queueing. *)

val acquisitions : t -> int
