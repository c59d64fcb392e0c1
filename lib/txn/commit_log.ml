(* Paged status array indexed by tid, as in PostgreSQL's pg_xact. Each
   cell is 0 (no status) or [(ts lsl 2) lor tag]. Cells live in fixed
   pages under a directory; a page is allocated on its first write and
   dropped once it lies wholly below the freeze horizon, so nothing is
   copied as the log grows and nothing below the horizon is kept. *)

type status = Committed_at of Timestamp.t | Aborted_at of Timestamp.t

type t = {
  mutable pages : int array array; (* [empty] for an unallocated or dropped page *)
  mutable horizon : int; (* a page boundary; every page below it is dropped *)
  mutable hi : int; (* every cell at or past [hi] is 0 *)
  mutable finished : int;
  mutable retained : int; (* allocated pages *)
}

let committed_tag = 1
let aborted_tag = 2
let empty : int array = [||]

let page_bits = 12
let page_cells = 1 lsl page_bits
let create () = { pages = Array.make 64 empty; horizon = 0; hi = 0; finished = 0; retained = 0 }

let encode status =
  let tag, ts =
    match status with
    | Committed_at ts -> (committed_tag, ts)
    | Aborted_at ts -> (aborted_tag, ts)
  in
  let cell = (ts lsl 2) lor tag in
  if cell asr 2 <> ts then invalid_arg "Commit_log: timestamp out of range";
  cell

let decode cell =
  if cell land 3 = committed_tag then Committed_at (cell asr 2) else Aborted_at (cell asr 2)

(* At or above the horizon only: a negative tid, a lookup past the end
   (e.g. [Timestamp.infinity]) or into a page never written is 0. *)
let cell t tid =
  if tid < 0 || tid >= t.hi then 0
  else
    let page = Array.unsafe_get t.pages (tid lsr page_bits) in
    if page == empty then 0 else Array.unsafe_get page (tid land (page_cells - 1))

let below t tid = tid < t.horizon

let frozen name t tid =
  if below t tid && tid >= 0 then
    invalid_arg
      (Printf.sprintf "Commit_log.%s: t%d is below the freeze horizon %d" name tid t.horizon)

let store t ~tid status =
  if tid < 0 then invalid_arg "Commit_log: negative tid";
  frozen "record" t tid;
  let cell = encode status in
  let p = tid lsr page_bits in
  if p >= Array.length t.pages then begin
    let rec fit n = if n > p then n else fit (2 * n) in
    let pages = Array.make (fit (Array.length t.pages)) empty in
    Array.blit t.pages 0 pages 0 (Array.length t.pages);
    t.pages <- pages
  end;
  let page =
    match t.pages.(p) with
    | page when page == empty ->
        let page = Array.make page_cells 0 in
        t.pages.(p) <- page;
        t.retained <- t.retained + 1;
        page
    | page -> page
  in
  let i = tid land (page_cells - 1) in
  if page.(i) = 0 then t.finished <- t.finished + 1;
  page.(i) <- cell;
  if tid >= t.hi then t.hi <- tid + 1

let record t ~tid status =
  if tid >= t.horizon && cell t tid <> 0 then invalid_arg "Commit_log.record: duplicate status";
  store t ~tid status

let override t ~tid status = store t ~tid status

let status t tid =
  frozen "status" t tid;
  match cell t tid with 0 -> None | c -> Some (decode c)

let mem t tid = if below t tid then tid >= 0 else cell t tid <> 0
let is_committed t tid = if below t tid then tid >= 0 else cell t tid land 3 = committed_tag

let committed_after t tid ts =
  if tid >= 0 && below t tid then false
  else
    let c = cell t tid in
    c land 3 <> committed_tag || c asr 2 > ts

let commit_ts t tid =
  frozen "commit_ts" t tid;
  let c = cell t tid in
  if c land 3 = committed_tag then c asr 2 else Timestamp.infinity

let commit_ts_of t tid =
  frozen "commit_ts_of" t tid;
  let c = cell t tid in
  if c land 3 = committed_tag then Some (c asr 2) else None

let finished t = t.finished
let horizon t = t.horizon
let retained_cells t = t.retained * page_cells

let advance_horizon t tid =
  let first = tid asr page_bits in
  if first lsl page_bits > t.horizon then begin
    for p = t.horizon lsr page_bits to min first (Array.length t.pages) - 1 do
      if t.pages.(p) != empty then begin
        t.pages.(p) <- empty;
        t.retained <- t.retained - 1
      end
    done;
    t.horizon <- first lsl page_bits
  end

let reset t =
  Array.fill t.pages 0 (Array.length t.pages) empty;
  t.horizon <- 0;
  t.hi <- 0;
  t.finished <- 0;
  t.retained <- 0

let fold_from t ~floor f init =
  if max floor 0 < t.horizon then
    invalid_arg
      (Printf.sprintf "Commit_log.fold_from: floor t%d is below the freeze horizon %d" floor
         t.horizon);
  let acc = ref init in
  for tid = max floor 0 to t.hi - 1 do
    let c = cell t tid in
    if c <> 0 then acc := f tid (decode c) !acc
  done;
  !acc

let entries t =
  let acc = ref [] in
  for tid = t.hi - 1 downto t.horizon do
    let c = cell t tid in
    if c <> 0 then acc := (tid, decode c) :: !acc
  done;
  !acc
