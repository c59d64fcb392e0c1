(* The live set is one array of transactions sorted by tid, used up to
   [live_n]. The oracle hands out increasing tids, so a begin appends;
   a finish binary-searches and closes the gap. Readers walk the array
   in order and never sort.

   The commit log's freeze horizon moves each time the oracle enters a
   new log page: to the oldest tid any live view can still see as
   uncommitted, or lower if a registered floor says so. *)
type t = {
  ts_oracle : Timestamp.oracle;
  mutable live : Txn.t array;
  mutable live_n : int;
  log : Commit_log.t;
  mutable page : int; (* oracle page at the last horizon move *)
  mutable floors : (unit -> Timestamp.t) list;
  mutable over_truncate : bool;
  mutable horizon_audit : (now:Clock.time -> unit) option;
  mutable started : int;
  mutable committed : int;
  mutable aborted : int;
  mutable avg_duration : float; (* ns, EWMA *)
}

(* Fills the unused tail of [live], so finished transactions are not
   kept reachable. *)
let vacant =
  {
    Txn.tid = -1;
    begin_time = 0;
    view = Read_view.of_sorted ~creator:(-1) ~actives:[||] ~high:0;
    state = Txn.Aborted;
    commit_ts = None;
    reads = 0;
    writes = 0;
  }

let create () =
  {
    ts_oracle = Timestamp.oracle ();
    live = Array.make 256 vacant;
    live_n = 0;
    log = Commit_log.create ();
    page = 0;
    floors = [];
    over_truncate = false;
    horizon_audit = None;
    started = 0;
    committed = 0;
    aborted = 0;
    avg_duration = 0.;
  }

let oracle t = Timestamp.current t.ts_oracle

let oldest_visible_horizon t =
  let acc = ref (oracle t) in
  for i = 0 to t.live_n - 1 do
    acc := min !acc (Read_view.oldest_visible_horizon t.live.(i).Txn.view)
  done;
  !acc

let register_floor t f = t.floors <- f :: t.floors
let floor t = List.fold_left (fun acc f -> min acc (f ())) Timestamp.infinity t.floors
let freeze_horizon t = min (oldest_visible_horizon t) (floor t)

let advance_horizon t =
  let h = freeze_horizon t in
  (* Sabotage: one page past what the live set and the floors allow. *)
  let h = if t.over_truncate then h + Commit_log.page_cells else h in
  Commit_log.advance_horizon t.log h

let set_clog_over_truncate t on = t.over_truncate <- on
let set_horizon_audit t f = t.horizon_audit <- f

let begin_txn t ~now =
  let page = Timestamp.current t.ts_oracle / Commit_log.page_cells in
  if page <> t.page then begin
    t.page <- page;
    advance_horizon t;
    match t.horizon_audit with Some audit -> audit ~now | None -> ()
  end;
  let n = t.live_n in
  let actives = Array.make n 0 in
  for i = 0 to n - 1 do
    actives.(i) <- t.live.(i).Txn.tid
  done;
  let tid = Timestamp.next t.ts_oracle in
  (* Every active is below [high = tid], so this append keeps [live]
     sorted; [of_sorted] checks it. *)
  let view = Read_view.of_sorted ~creator:tid ~actives ~high:tid in
  let txn =
    {
      Txn.tid;
      begin_time = now;
      view;
      state = Txn.Active;
      commit_ts = None;
      reads = 0;
      writes = 0;
    }
  in
  if n = Array.length t.live then begin
    let live = Array.make (2 * n) vacant in
    Array.blit t.live 0 live 0 n;
    t.live <- live
  end;
  t.live.(n) <- txn;
  t.live_n <- n + 1;
  t.started <- t.started + 1;
  Metrics.bump "txn.begins";
  txn

let note_duration t dur =
  let dur = float_of_int dur in
  if t.avg_duration = 0. then t.avg_duration <- dur
  else t.avg_duration <- (0.95 *. t.avg_duration) +. (0.05 *. dur)

(* Index of [tid] in [live.(lo..hi-1)], or -1. *)
let rec find_live live (tid : Timestamp.t) lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let m = live.(mid).Txn.tid in
    if m = tid then mid
    else if m < tid then find_live live tid (mid + 1) hi
    else find_live live tid lo mid

let finish t (txn : Txn.t) =
  if not (Txn.is_active txn) then invalid_arg "Txn_manager: transaction not active";
  (* Absent after [reset_for_recovery] wiped the live set under a worker
     that still holds the handle. *)
  let i = find_live t.live txn.tid 0 t.live_n in
  if i >= 0 then begin
    let n = t.live_n - 1 in
    Array.blit t.live (i + 1) t.live i (n - i);
    t.live.(n) <- vacant;
    t.live_n <- n
  end

let commit t (txn : Txn.t) ~now =
  finish t txn;
  let commit_ts = Timestamp.next t.ts_oracle in
  txn.state <- Txn.Committed;
  txn.commit_ts <- Some commit_ts;
  Commit_log.record t.log ~tid:txn.tid (Commit_log.Committed_at commit_ts);
  note_duration t (Txn.age txn ~now);
  t.committed <- t.committed + 1;
  Metrics.bump "txn.commits";
  Metrics.observe ~bucket_width:100 "txn.duration_us" (Txn.age txn ~now / 1_000)

let abort t (txn : Txn.t) ~now =
  finish t txn;
  let ts = Timestamp.next t.ts_oracle in
  txn.state <- Txn.Aborted;
  (* A failover may already have recorded this tid as a recovery loser
     while the worker still held the handle; the durable outcome wins
     and the worker's abort just retires the live entry. *)
  if not (Commit_log.mem t.log txn.tid) then
    Commit_log.record t.log ~tid:txn.tid (Commit_log.Aborted_at ts);
  ignore now;
  t.aborted <- t.aborted + 1;
  Metrics.bump "txn.aborts"

let rollback_unreplicated t ~tid =
  (* Promotion-time compensation: the old primary decided commit locally
     but died before the decision reached a quorum, so on the promoted
     timeline the transaction never committed. Flip the stale status to
     aborted with a fresh timestamp so clog and WAL agree again. *)
  match Commit_log.status t.log tid with
  | Some (Commit_log.Committed_at _) ->
      let ats = Timestamp.next t.ts_oracle in
      Commit_log.override t.log ~tid (Commit_log.Aborted_at ats);
      t.committed <- t.committed - 1;
      t.aborted <- t.aborted + 1;
      Some ats
  | Some (Commit_log.Aborted_at _) | None -> None


let reset_for_recovery t =
  Array.fill t.live 0 t.live_n vacant;
  t.live_n <- 0;
  Commit_log.reset t.log

let crash_recover ?(reset = true) t ~committed ~aborted ~losers ~oracle_floor =
  (* Lost memory is not consulted: the live table is wiped and the
     commit log rebuilt from what the recovered WAL proves. Shards
     sharing one manager recover with [~reset:false] — the group wipes
     once up front and each shard merges its outcomes in, first outcome
     winning across shards exactly as it does within one log. *)
  if reset then reset_for_recovery t;
  let restore status (tid, ts) =
    (* First outcome wins: a sabotaged replay can fabricate conflicting
       outcomes, and recovery must degrade into a state the invariant
       checker can inspect rather than raise. *)
    if not (Commit_log.mem t.log tid) then Commit_log.record t.log ~tid (status ts)
  in
  List.iter (restore (fun ts -> Commit_log.Committed_at ts)) committed;
  List.iter (restore (fun ts -> Commit_log.Aborted_at ts)) aborted;
  Timestamp.advance_to t.ts_oracle oracle_floor;
  (* Losers: began, no durable outcome — rolled back with a fresh abort
     timestamp, returned so the engine can log the compensating abort
     records. *)
  List.filter_map
    (fun tid ->
      if not (Commit_log.mem t.log tid) then begin
        let ats = Timestamp.next t.ts_oracle in
        Commit_log.record t.log ~tid (Commit_log.Aborted_at ats);
        t.aborted <- t.aborted + 1;
        Some (tid, ats)
      end
      else None)
    losers

let commit_log t = t.log
let live_count t = t.live_n

(* The live transactions satisfying [keep], ascending by tid, mapped. *)
let live_filter_map t keep f =
  let acc = ref [] in
  for i = t.live_n - 1 downto 0 do
    let txn = t.live.(i) in
    if keep txn then acc := f txn :: !acc
  done;
  !acc

let live_begin_ts t = live_filter_map t (fun _ -> true) (fun txn -> txn.Txn.tid)
let live_views t = live_filter_map t (fun _ -> true) (fun txn -> txn.Txn.view)
let oldest_active t = if t.live_n = 0 then None else Some t.live.(0).Txn.tid

let shed_candidates t ~now ~min_age =
  live_filter_map t (fun txn -> Txn.age txn ~now > min_age) Fun.id

let llt_views t ~now ~delta_llt =
  live_filter_map t (fun txn -> Txn.age txn ~now > delta_llt) (fun txn -> txn.Txn.view)

let avg_txn_duration t = int_of_float t.avg_duration
let started t = t.started
let committed t = t.committed
let aborted t = t.aborted
