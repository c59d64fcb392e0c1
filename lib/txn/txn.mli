(** A transaction handle.

    The id doubles as the begin timestamp. [begin_time] is the simulated
    wall-clock start, used for LLT detection ([delta_llt] is a wall-time
    threshold in the paper, §3.3). *)

type state = Active | Committed | Aborted

type t = {
  tid : Timestamp.t;
  begin_time : Clock.time;
  view : Read_view.t;
  mutable state : state;
  mutable commit_ts : Timestamp.t option;  (** set on commit *)
  mutable reads : int;
  mutable writes : int;
}

val age : t -> now:Clock.time -> Clock.time
val is_active : t -> bool
