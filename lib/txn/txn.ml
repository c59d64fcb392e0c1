type state = Active | Committed | Aborted

type t = {
  tid : Timestamp.t;
  begin_time : Clock.time;
  view : Read_view.t;
  mutable state : state;
  mutable commit_ts : Timestamp.t option;
  mutable reads : int;
  mutable writes : int;
}

let age t ~now = max 0 (now - t.begin_time)
let is_active t = t.state = Active
