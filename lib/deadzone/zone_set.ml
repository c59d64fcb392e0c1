type t = { boundaries : Timestamp.t array; now_ts : Timestamp.t }

let make ~live ~now_ts =
  let boundaries = Array.of_list live in
  Array.sort compare boundaries;
  let n = Array.length boundaries in
  for i = 0 to n - 2 do
    if boundaries.(i) = boundaries.(i + 1) then
      invalid_arg "Zone_set.make: duplicate begin timestamp"
  done;
  if n > 0 && boundaries.(n - 1) >= now_ts then
    invalid_arg "Zone_set.make: live begin timestamp not before now_ts";
  { boundaries; now_ts }

let of_txn_manager mgr =
  make ~live:(Txn_manager.live_begin_ts mgr) ~now_ts:(Txn_manager.oracle mgr)

let now_ts t = t.now_ts
let boundary_count t = Array.length t.boundaries

let oldest_boundary t =
  if Array.length t.boundaries = 0 then t.now_ts else t.boundaries.(0)

let zones t =
  let n = Array.length t.boundaries in
  if n = 0 then [ (min_int, t.now_ts) ]
  else begin
    let acc = ref [ (t.boundaries.(n - 1), t.now_ts) ] in
    for i = n - 1 downto 1 do
      acc := (t.boundaries.(i - 1), t.boundaries.(i)) :: !acc
    done;
    (min_int, t.boundaries.(0)) :: !acc
  end

(* Smallest boundary >= x, as an index; [n] if none. *)
let lower_bound t x =
  let a = t.boundaries in
  let rec search lo hi = if lo >= hi then lo else
    let mid = (lo + hi) / 2 in
    if a.(mid) < x then search (mid + 1) hi else search lo mid
  in
  search 0 (Array.length a)

(* (vs, ve) sits strictly inside a zone iff no live boundary lies in
   [vs, ve] and ve precedes the snapshot's current time. *)
let prunable t ~vs ~ve =
  if vs >= ve then invalid_arg "Zone_set.prunable: requires vs < ve";
  if ve >= t.now_ts then false
  else
    let i = lower_bound t vs in
    i >= Array.length t.boundaries || t.boundaries.(i) > ve

let covers t ~lo ~hi =
  if lo > hi then invalid_arg "Zone_set.covers: requires lo <= hi";
  if hi >= t.now_ts then false
  else
    let i = lower_bound t lo in
    i >= Array.length t.boundaries || t.boundaries.(i) > hi
