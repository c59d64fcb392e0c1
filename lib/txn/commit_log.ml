(* Dense status array indexed by tid, as in PostgreSQL's pg_xact. Each
   cell is 0 (no status) or [(ts lsl 2) lor tag]; the array grows
   geometrically and is scanned in tid order, so nothing is sorted. *)

type status = Committed_at of Timestamp.t | Aborted_at of Timestamp.t

type t = {
  mutable cells : int array;
  mutable hi : int; (* every cell at or past [hi] is 0 *)
  mutable finished : int;
}

let committed_tag = 1
let aborted_tag = 2
let create () = { cells = Array.make 1024 0; hi = 0; finished = 0 }

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

(* Never grows: a lookup past the end (e.g. [Timestamp.infinity]) is 0. *)
let cell t tid = if tid >= 0 && tid < t.hi then Array.unsafe_get t.cells tid else 0

let store t ~tid status =
  if tid < 0 then invalid_arg "Commit_log: negative tid";
  let cell = encode status in
  let len = Array.length t.cells in
  if tid >= len then begin
    if tid >= Sys.max_array_length then invalid_arg "Commit_log: tid out of range";
    let rec fit n = if n > tid then n else fit (min (2 * n) Sys.max_array_length) in
    let cells = Array.make (fit len) 0 in
    Array.blit t.cells 0 cells 0 t.hi;
    t.cells <- cells
  end;
  if t.cells.(tid) = 0 then t.finished <- t.finished + 1;
  t.cells.(tid) <- cell;
  if tid >= t.hi then t.hi <- tid + 1

let record t ~tid status =
  if cell t tid <> 0 then invalid_arg "Commit_log.record: duplicate status";
  store t ~tid status

let override t ~tid status = store t ~tid status
let status t tid = match cell t tid with 0 -> None | c -> Some (decode c)
let mem t tid = cell t tid <> 0
let is_committed t tid = cell t tid land 3 = committed_tag

let commit_ts t tid =
  let c = cell t tid in
  if c land 3 = committed_tag then c asr 2 else Timestamp.infinity

let commit_ts_of t tid =
  let c = cell t tid in
  if c land 3 = committed_tag then Some (c asr 2) else None

let finished t = t.finished

let reset t =
  Array.fill t.cells 0 t.hi 0;
  t.hi <- 0;
  t.finished <- 0

let entries t =
  let acc = ref [] in
  for tid = t.hi - 1 downto 0 do
    let c = Array.unsafe_get t.cells tid in
    if c <> 0 then acc := (tid, decode c) :: !acc
  done;
  !acc

let fold_from t ~floor f init =
  let acc = ref init in
  for tid = max floor 0 to t.hi - 1 do
    let c = Array.unsafe_get t.cells tid in
    if c <> 0 then acc := f tid (decode c) !acc
  done;
  !acc
