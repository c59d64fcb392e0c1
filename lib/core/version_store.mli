(** Off-row version store: hardened segments on stable storage.

    vCutter removes whole segments whose [\[v_min, v_max\]] descriptor
    falls inside a dead zone; the elapsed time between hardening and the
    cut is the {e cut delay} the paper measures in Figure 16. *)

type t

val create : unit -> t

val harden : t -> Segment.t -> now:Clock.time -> unit
(** Transition a buffered segment to stable storage. The segment must
    be non-empty. *)

val cut : t -> Segment.t -> now:Clock.time -> unit
(** Purge a hardened segment and record its cut delay. *)

val iter_hardened : t -> (Segment.t -> unit) -> unit
(** Visit surviving hardened segments, oldest hardening first. *)

val live_bytes : t -> int
val hardened_count : t -> int
(** Segments hardened over the store's lifetime. *)

val resident_count : t -> int
(** Segments currently hardened and not cut. *)

val cut_delays : t -> (Vclass.t * Clock.time) list
(** Class and delay of each cut performed, oldest first. *)

val clear : t -> unit
(** Crash: drop everything (off-row versions never survive a restart,
    §3.5). Lifetime counters are preserved. *)
