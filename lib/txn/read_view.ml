type t = {
  creator : Timestamp.t;
  high : Timestamp.t;
  actives : Timestamp.t array;
}

let make ~creator ~actives ~high =
  let actives = Array.of_list actives in
  Array.sort Int.compare actives;
  Array.iter
    (fun ts ->
      if ts >= high then invalid_arg "Read_view.make: active ts >= high";
      if ts = creator then invalid_arg "Read_view.make: creator listed active")
    actives;
  { creator; high; actives }

(* Typed, so the comparisons below are integer ones rather than calls
   to the polymorphic [compare]: this sits on every visibility check. *)
let mem_sorted (a : int array) (x : int) =
  let rec search lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = x then true else if a.(mid) < x then search (mid + 1) hi else search lo mid
  in
  search 0 (Array.length a)

let committed_before view ts =
  if ts = view.creator then true
  else if ts >= view.high then false
  else not (mem_sorted view.actives ts)

let snapshot_read view ~vs ~ve =
  committed_before view vs && not (committed_before view ve)

let oldest_visible_horizon view =
  if Array.length view.actives = 0 then min view.creator view.high
  else min view.creator view.actives.(0)
