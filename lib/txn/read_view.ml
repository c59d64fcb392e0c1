type t = {
  creator : Timestamp.t;
  high : Timestamp.t;
  actives : Timestamp.t array;
}

let of_sorted ~creator ~actives ~high =
  for i = 0 to Array.length actives - 1 do
    let ts = actives.(i) in
    if ts >= high then invalid_arg "Read_view.make: active ts >= high";
    if ts = creator then invalid_arg "Read_view.make: creator listed active";
    if i > 0 && actives.(i - 1) >= ts then
      invalid_arg "Read_view.of_sorted: actives not strictly increasing"
  done;
  { creator; high; actives }

let make ~creator ~actives ~high =
  of_sorted ~creator ~actives:(Array.of_list (List.sort_uniq Int.compare actives)) ~high

(* Top level and typed, so the visibility check below neither builds a
   closure nor calls the polymorphic [compare]. *)
let rec mem_sorted (a : int array) (x : int) lo hi =
  lo < hi
  &&
  let mid = (lo + hi) lsr 1 in
  let v = Array.unsafe_get a mid in
  v = x || if v < x then mem_sorted a x (mid + 1) hi else mem_sorted a x lo mid

let committed_before view ts =
  if ts = view.creator then true
  else if ts >= view.high then false
  else not (mem_sorted view.actives ts 0 (Array.length view.actives))

let snapshot_read view ~vs ~ve =
  committed_before view vs && not (committed_before view ve)

let oldest_visible_horizon view =
  if Array.length view.actives = 0 then min view.creator view.high
  else min view.creator view.actives.(0)
