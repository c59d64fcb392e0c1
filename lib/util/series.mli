(** Time series collected during a simulation run.

    [Series.t] stores raw (time, value) samples, e.g. version-space bytes
    sampled each simulated second. [Rate.t] buckets discrete events (e.g.
    commits) into fixed-width time windows and reports per-second rates —
    this is how the throughput curves of Figures 3, 13, 17 and 18 are
    produced. Times are in seconds. *)

type t

val create : unit -> t
val add : t -> time:float -> value:float -> unit
val to_list : t -> (float * float) list
(** Samples in insertion (time) order. *)

val last : t -> (float * float) option

module Rate : sig
  type rate

  val create : ?bucket:float -> unit -> rate
  (** [bucket] is the window width in seconds (default 1.0). *)

  val incr : rate -> time:float -> unit

  val per_second : rate -> (float * float) list
  (** [(window_start_time, events_per_second)] for every window up to the
      last event seen, including empty windows. *)

  val total : rate -> int
end
