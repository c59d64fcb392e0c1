type analysis = {
  records : Wal_record.t list;
  survivors : int;
  truncate_lsn : int;
  dropped : int;
  checkpoint : (int * Checkpoint.t) option;
  steady_checkpoint : (int * Checkpoint.t) option;
  coord_commits : (int * int * int list) list;
  coord_aborts : int list;
  prepares : (int * int) list;
  forgets : int list;
  prepared_commits : (int * int) list;
}

type seg_build = {
  seg_id : int;
  cls : string;
  hardened : bool;
  versions : Checkpoint.seg_version list;
}

type expectation = {
  committed : (int * int) list;
  aborted : (int * int) list;
  losers : int list;
  rows : Checkpoint.row list;
  segments : seg_build list;
  dead_segs : int list;
  next_seg_id : int;
  oracle_floor : int;
  replayed : int;
  indoubt : (int * int) list;
  resolved_commits : (int * int) list;
  decisions : (int * int) list;
}

type seg_acc = {
  sa_cls : string;
  mutable sa_hardened : bool;
  mutable sa_versions : Checkpoint.seg_version list; (* reversed *)
}

(* ------------------------------------------------------------------ *)
(* The expectation tables: a checkpoint image with the redo records
   after it folded in. [expect] builds one from scratch per call; a
   tracking cursor keeps one, re-seeded at every steady checkpoint. *)

type state = {
  committed : (int, int) Hashtbl.t;
  aborted : (int, int) Hashtbl.t;
  live : (int, unit) Hashtbl.t;
  prepared : (int, int) Hashtbl.t;
  pending : (int, (int * Checkpoint.pending_write) list ref) Hashtbl.t;
  rows : (int, Checkpoint.row) Hashtbl.t;
  creators : (int, (int * int) list) Hashtbl.t;  (* row creator -> (cts, rows) *)
  segs : (int, seg_acc) Hashtbl.t;
  decisions : (int, int) Hashtbl.t;  (* the base's window, then replayed Coord_commit *)
  mutable dead_segs : int list;
  mutable max_ts : int;
  mutable next_seg_id : int;
  mutable replayed : int;
  mutable touch : int -> unit;  (* a transaction whose outcome entries changed *)
}

let new_state () =
  {
    committed = Hashtbl.create 256;
    aborted = Hashtbl.create 64;
    live = Hashtbl.create 64;
    prepared = Hashtbl.create 16;
    pending = Hashtbl.create 64;
    rows = Hashtbl.create 256;
    creators = Hashtbl.create 256;
    segs = Hashtbl.create 64;
    decisions = Hashtbl.create 16;
    dead_segs = [];
    max_ts = 0;
    next_seg_id = 0;
    replayed = 0;
    touch = ignore;
  }

let see st ts = if ts > st.max_ts then st.max_ts <- ts

(* [(cts, rows)] sorted by cts, with [d] more rows at [cts]. *)
let rec bump cts d = function
  | (c, n) :: rest when c < cts -> (c, n) :: bump cts d rest
  | (c, n) :: rest when c = cts -> if n + d = 0 then rest else (c, n + d) :: rest
  | l -> (cts, d) :: l

(* Rows per (creator, cts): the commit entries the recovered rows
   vouch for, kept as rows change. They only count for a creator with
   no commit entry of its own, and a commit entry, once made, stays
   until the tables are seeded again. *)
let count_creator st vs cts d =
  if vs > 0 && not (Hashtbl.mem st.committed vs) then begin
    (match bump cts d (Option.value ~default:[] (Hashtbl.find_opt st.creators vs)) with
    | [] -> Hashtbl.remove st.creators vs
    | l -> Hashtbl.replace st.creators vs l);
    st.touch vs
  end

let set_row st (r : Checkpoint.row) =
  (match Hashtbl.find_opt st.rows r.rid with
  | Some old -> count_creator st old.vs old.cts (-1)
  | None -> ());
  Hashtbl.replace st.rows r.rid r;
  count_creator st r.vs r.cts 1

let commit_pending st tid cts =
  match Hashtbl.find_opt st.pending tid with
  | None -> ()
  | Some ws ->
      Hashtbl.remove st.pending tid;
      List.iter
        (fun (_, (w : Checkpoint.pending_write)) ->
          set_row st
            { Checkpoint.rid = w.rid; value = w.value; vs = tid; vs_time = w.vs_time; cts })
        (List.rev !ws)

let empty_base =
  {
    Checkpoint.at = 0;
    oracle_next = 1;
    live = [];
    committed = [];
    aborted = [];
    rows = [];
    pending = [];
    segments = [];
    next_seg_id = 0;
    prepared = [];
    decisions = [];
  }

(* Make [tbl] hold exactly the bindings of [l] (the last one of a key
   wins), calling [touch] on each key whose binding changed: one lookup
   per binding when none did. *)
let patch ?(touch = ignore) tbl l =
  List.iter
    (fun (k, x) ->
      match Hashtbl.find_opt tbl k with
      | Some y when y = x -> ()
      | _ ->
          Hashtbl.replace tbl k x;
          touch k)
    l;
  if Hashtbl.length tbl <> List.length l then begin
    let keep = Hashtbl.create 64 in
    List.iter (fun (k, _) -> Hashtbl.replace keep k ()) l;
    Hashtbl.filter_map_inplace
      (fun k x ->
        if Hashtbl.mem keep k then Some x
        else begin
          touch k;
          None
        end)
      tbl
  end

(* Make [st] the image of [base] with nothing replayed yet, touching
   every transaction whose entries change: in place, so a cursor
   re-seeded at a checkpoint that matches what it folded does one
   lookup per entry. *)
let seed st (base : Checkpoint.t) =
  let touch = st.touch in
  patch ~touch st.committed base.committed;
  patch ~touch st.aborted base.aborted;
  patch ~touch st.prepared base.prepared;
  List.sort_uniq compare (base.live @ List.map fst base.prepared)
  |> List.map (fun tid -> (tid, ()))
  |> patch ~touch st.live;
  patch st.rows (List.map (fun (r : Checkpoint.row) -> (r.rid, r)) base.rows);
  let creators = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ (r : Checkpoint.row) ->
      if r.vs > 0 && not (Hashtbl.mem st.committed r.vs) then
        Hashtbl.replace creators r.vs
          (bump r.cts 1 (Option.value ~default:[] (Hashtbl.find_opt creators r.vs))))
    st.rows;
  patch ~touch st.creators (Hashtbl.fold (fun vs l acc -> (vs, l) :: acc) creators []);
  Hashtbl.clear st.pending;
  List.iter
    (fun (p : Checkpoint.pending) ->
      Hashtbl.replace st.pending p.tid
        (ref (List.map (fun (w : Checkpoint.pending_write) -> (w.rid, w)) p.writes)))
    base.pending;
  Hashtbl.clear st.segs;
  st.next_seg_id <- base.next_seg_id;
  List.iter
    (fun (s : Checkpoint.seg) ->
      Hashtbl.replace st.segs s.seg_id
        { sa_cls = s.cls; sa_hardened = s.hardened; sa_versions = List.rev s.versions };
      if s.seg_id >= st.next_seg_id then st.next_seg_id <- s.seg_id + 1)
    base.segments;
  (* Coordinator decisions come from the whole trustworthy prefix, not
     just the replay window: another shard's in-doubt participant may
     ask about a transaction whose decision predates this shard's last
     checkpoint (already forgotten here, still unresolved there). The
     log's own decisions override this window in [finish]. *)
  Hashtbl.clear st.decisions;
  List.iter
    (fun (gid, cts) ->
      if not (Hashtbl.mem st.decisions gid) then Hashtbl.replace st.decisions gid cts)
    base.decisions;
  st.dead_segs <- [];
  st.replayed <- 0;
  st.max_ts <- base.oracle_next - 1;
  let see2 (a, b) = see st a; see st b in
  List.iter see2 base.committed;
  List.iter see2 base.aborted;
  List.iter (see st) base.live;
  List.iter (fun (r : Checkpoint.row) -> see st r.vs; see st r.cts) base.rows;
  List.iter (fun (p : Checkpoint.pending) -> see st p.tid) base.pending;
  List.iter (fun (tid, _) -> see st tid) base.prepared;
  List.iter see2 base.decisions

let apply st (r : Wal_record.t) =
  st.replayed <- st.replayed + 1;
  match r.payload with
  | Wal_record.Txn_begin { tid } ->
      see st tid;
      Hashtbl.replace st.live tid ();
      st.touch tid
  | Wal_record.Txn_commit { tid; cts } ->
      see st tid;
      see st cts;
      Hashtbl.remove st.live tid;
      Hashtbl.remove st.prepared tid;
      Hashtbl.replace st.committed tid cts;
      st.touch tid;
      commit_pending st tid cts
  | Wal_record.Txn_abort { tid; ats } ->
      see st tid;
      see st ats;
      Hashtbl.remove st.live tid;
      Hashtbl.remove st.pending tid;
      Hashtbl.remove st.prepared tid;
      Hashtbl.replace st.aborted tid ats;
      st.touch tid
  | Wal_record.Version_insert { tid; rid; value } ->
      see st tid;
      let writes =
        match Hashtbl.find_opt st.pending tid with
        | Some ws -> ws
        | None ->
            let ws = ref [] in
            Hashtbl.replace st.pending tid ws;
            ws
      in
      (* Same-transaction overwrite: only the final value exists. *)
      writes := (rid, { Checkpoint.rid; value; vs_time = r.at }) :: List.remove_assoc rid !writes
  | Wal_record.Relocate { rid; vs; ve; vs_time; ve_time; bytes; value; seg_id; cls; lo; hi } ->
      see st vs;
      see st ve;
      see st lo;
      see st hi;
      if seg_id >= st.next_seg_id then st.next_seg_id <- seg_id + 1;
      let acc =
        match Hashtbl.find_opt st.segs seg_id with
        | Some acc -> acc
        | None ->
            let acc = { sa_cls = cls; sa_hardened = false; sa_versions = [] } in
            Hashtbl.replace st.segs seg_id acc;
            acc
      in
      acc.sa_versions <-
        { Checkpoint.rid; vs; ve; vs_time; ve_time; bytes; value; lo; hi } :: acc.sa_versions
  | Wal_record.Seg_harden { seg_id } -> (
      match Hashtbl.find_opt st.segs seg_id with
      | Some acc -> acc.sa_hardened <- true
      | None -> ())
  | Wal_record.Seg_drop { seg_id } | Wal_record.Seg_cut { seg_id } ->
      Hashtbl.remove st.segs seg_id;
      st.dead_segs <- seg_id :: st.dead_segs
  | Wal_record.Prepare { tid; coord; shards = _ } ->
      see st tid;
      (* Prepared and not yet resolved locally: the transaction is
         in-doubt, not a loser — rollback must wait for the
         coordinator's verdict. *)
      Hashtbl.replace st.prepared tid coord;
      Hashtbl.replace st.live tid ();
      st.touch tid
  | Wal_record.Coord_commit { gid; cts; shards = _ } ->
      see st gid;
      see st cts;
      Hashtbl.replace st.decisions gid cts
  | Wal_record.Coord_abort { gid } | Wal_record.Ack { gid; _ } | Wal_record.Forget { gid } ->
      (* Presumed abort: the absence of a commit decision already
         means abort, and acks/forgets only trim the coordinator's
         in-doubt table. *)
      see st gid
  | Wal_record.Promote _ | Wal_record.Rep_ack _ ->
      (* Replication bookkeeping: fencing markers and ship/ack
         watermarks carry no row state — replay skips them. *)
      ()
  | Wal_record.Ckpt_begin | Wal_record.Ckpt_end _ ->
      (* Only the last complete checkpoint is the replay base; a
         trailing Ckpt_begin whose end was lost is ignored. *)
      ()

(* Prepared here with no local outcome, sorted. *)
let indoubt_of st =
  Hashtbl.fold
    (fun tid coord acc -> if Hashtbl.mem st.live tid then (tid, coord) :: acc else acc)
    st.prepared []
  |> List.sort compare

(* [log] holds the decisions of the whole trustworthy prefix. Only
   in-doubt resolution changes [st]. *)
let finish ?resolve ~log st =
  (* In-doubt resolution: a transaction that prepared here but has no
     local outcome asks the coordinator. A durable Coord_commit means
     commit (apply the pending writes at its commit timestamp); no
     answer means presumed abort — the transaction stays a loser and
     the caller rolls it back with a CLR like any other. *)
  let indoubt_list = indoubt_of st in
  let resolved_commits = ref [] in
  (match resolve with
  | Some make_lookup when indoubt_list <> [] ->
      let lookup = make_lookup () in
      List.iter
        (fun (tid, coord) ->
          match lookup ~tid ~coord with
          | None -> ()
          | Some cts ->
              see st cts;
              resolved_commits := (tid, cts) :: !resolved_commits;
              Hashtbl.remove st.live tid;
              Hashtbl.replace st.committed tid cts;
              commit_pending st tid cts)
        indoubt_list
  | _ -> ());
  let committed_list = Hashtbl.fold (fun tid cts acc -> (tid, cts) :: acc) st.committed [] in
  (* Commit entries for the creators of recovered rows are part of the
     contract even when they predate the checkpoint window: write
     conflict checks on a recovered row look its creator up in the
     commit log. *)
  let committed_list =
    Hashtbl.fold
      (fun _ (r : Checkpoint.row) acc ->
        if r.vs > 0 && not (Hashtbl.mem st.committed r.vs) then (r.vs, r.cts) :: acc else acc)
      st.rows committed_list
  in
  let decisions = Hashtbl.copy st.decisions in
  Hashtbl.iter (Hashtbl.replace decisions) log;
  let bindings tbl = Hashtbl.fold (fun k x acc -> (k, x) :: acc) tbl [] in
  let sorted tbl = List.sort compare (bindings tbl) in
  {
    committed = List.sort compare committed_list;
    aborted = sorted st.aborted;
    losers = Hashtbl.fold (fun tid () acc -> tid :: acc) st.live [] |> List.sort compare;
    rows = List.map snd (sorted st.rows);
    segments =
      List.sort (fun (a, _) (b, _) -> compare a b) (bindings st.segs)
      |> List.map (fun (seg_id, acc) ->
             {
               seg_id;
               cls = acc.sa_cls;
               hardened = acc.sa_hardened;
               versions = List.rev acc.sa_versions;
             });
    dead_segs = List.sort_uniq compare st.dead_segs;
    next_seg_id = st.next_seg_id;
    oracle_floor = st.max_ts + 1;
    replayed = st.replayed;
    indoubt = indoubt_list;
    resolved_commits = List.sort compare !resolved_commits;
    decisions = sorted decisions;
  }

(* ------------------------------------------------------------------ *)
(* Log analysis *)

(* One forward pass over a device: how far it has been read, and what
   the analysis of that prefix holds. *)
type pass = {
  wal : Wal.t;
  mutations : int;
  mutable seen_lsn : int;  (* LSN of the last frame read *)
  mutable read : int;  (* frames read, trustworthy or not *)
  mutable torn : bool;  (* a bad frame ended the trustworthy prefix *)
  mutable kept : int;  (* trustworthy frames read *)
  mutable last_lsn : int;
  mutable tail : Wal_record.t list;  (* after the steady anchor, newest first *)
  mutable last_ckpt : (int * Checkpoint.t) option;
  mutable steady : (int * Checkpoint.t) option;
  (* The whole-prefix 2PC facts, newest first. *)
  mutable f_coord_commits : (int * int * int list) list;
  mutable f_coord_aborts : int list;
  mutable f_prepares : (int * int) list;
  mutable f_forgets : int list;
  mutable f_prepared_commits : (int * int) list;
  mutable n_prepared_commits : int;
  prepared_by : (int, int) Hashtbl.t;  (* tid -> coord of its latest Prepare *)
  decided : (int, int) Hashtbl.t;  (* gid -> cts of its latest Coord_commit *)
  mutable promoted : bool;  (* a Promote since the last Ckpt_end *)
}

let new_pass wal =
  {
    wal;
    mutations = Wal.mutations wal;
    seen_lsn = 0;
    read = 0;
    torn = false;
    kept = 0;
    last_lsn = 0;
    tail = [];
    last_ckpt = None;
    steady = None;
    f_coord_commits = [];
    f_coord_aborts = [];
    f_prepares = [];
    f_forgets = [];
    f_prepared_commits = [];
    n_prepared_commits = 0;
    prepared_by = Hashtbl.create 16;
    decided = Hashtbl.create 16;
    promoted = false;
  }

(* Kept records carry no checkpoint snapshot: the decoded anchors are
   [checkpoint] and [steady_checkpoint]. *)
let strip (r : Wal_record.t) =
  match r.payload with
  | Wal_record.Ckpt_end { snapshot = Some _ } ->
      { r with payload = Wal_record.Ckpt_end { snapshot = None } }
  | _ -> r

(* Folds [r] into [p]; [true] iff [r] is a failover checkpoint: the
   first [Ckpt_end] after a [Promote], which a promotion's recovery
   writes. *)
let fold p (r : Wal_record.t) =
  p.kept <- p.kept + 1;
  p.last_lsn <- r.lsn;
  p.tail <- strip r :: p.tail;
  match r.payload with
  | Wal_record.Prepare { tid; coord; _ } ->
      Hashtbl.replace p.prepared_by tid coord;
      p.f_prepares <- (tid, coord) :: p.f_prepares;
      false
  | Wal_record.Txn_commit { tid; _ } ->
      (match Hashtbl.find_opt p.prepared_by tid with
      | Some coord ->
          p.f_prepared_commits <- (tid, coord) :: p.f_prepared_commits;
          p.n_prepared_commits <- p.n_prepared_commits + 1
      | None -> ());
      false
  | Wal_record.Coord_commit { gid; cts; shards } ->
      p.f_coord_commits <- (gid, cts, shards) :: p.f_coord_commits;
      Hashtbl.replace p.decided gid cts;
      false
  | Wal_record.Coord_abort { gid } ->
      p.f_coord_aborts <- gid :: p.f_coord_aborts;
      false
  | Wal_record.Forget { gid } ->
      p.f_forgets <- gid :: p.f_forgets;
      false
  | Wal_record.Promote _ ->
      p.promoted <- true;
      false
  | Wal_record.Ckpt_end { snapshot } ->
      let failover = p.promoted in
      p.promoted <- false;
      Option.iter
        (fun ck ->
          p.last_ckpt <- Some (r.lsn, ck);
          if not failover then begin
            p.steady <- p.last_ckpt;
            p.tail <- []
          end)
        snapshot;
      failover
  | _ -> false

(* Read the frames past [p.seen_lsn], handing each trustworthy record
   to [f] after folding it. Decoding stops at the first frame that
   fails to parse or verify: everything beyond a torn/corrupt frame is
   untrustworthy even if it happens to checksum, because the device
   gave no ordering guarantee past the tear. A frame tagged for a
   different shard is treated the same way — each shard's log is its
   own LSN namespace, and an interleaved foreign frame means the write
   path crossed shards, which replay must refuse rather than absorb. *)
let scan ?(check_crc = true) p f =
  let own_shard = Wal.shard p.wal in
  Wal.iter_from p.wal ~lsn:p.seen_lsn (fun lsn repr ->
      p.seen_lsn <- lsn;
      p.read <- p.read + 1;
      if not p.torn then
        match Wal_record.scan ~check_crc repr with
        | r when r.Wal_record.shard = own_shard -> f r (fold p r)
        | _ | (exception Canon.Not_canonical) -> p.torn <- true)

let analysis_of p =
  {
    records = List.rev p.tail;
    survivors = Wal.discarded p.wal + p.kept;
    truncate_lsn = p.last_lsn;
    dropped = p.read - p.kept;
    checkpoint = p.last_ckpt;
    steady_checkpoint = p.steady;
    coord_commits = p.f_coord_commits;
    coord_aborts = p.f_coord_aborts;
    prepares = p.f_prepares;
    forgets = p.f_forgets;
    prepared_commits = p.f_prepared_commits;
  }

(* The from-scratch analysis is one pass that keeps no expectation: it
   holds the records after the newest anchor and the anchors'
   snapshots, never the whole decoded log. *)
let analyze ?check_crc wal =
  let p = new_pass wal in
  scan ?check_crc p (fun _ _ -> ());
  analysis_of p

type cursor = {
  stale : bool;
  mutable pass : pass option;
  st : state;  (* seeded at the steady anchor *)
  changed : (int, unit) Hashtbl.t;  (* touched since the last [take_changed] *)
  mutable window : (int, int) Hashtbl.t;  (* the newest checkpoint's decisions *)
  mutable ckpt_prepared : (int, int) Hashtbl.t;  (* and its in-doubt set *)
  mutable vouched : (int * int) list;  (* commits since it of that set *)
  mutable restarts : int;
}

let cursor ?(stale = false) () =
  let changed = Hashtbl.create 256 in
  let st = new_state () in
  st.touch <- (fun tid -> Hashtbl.replace changed tid ());
  let empty = Hashtbl.create 1 in
  {
    stale;
    pass = None;
    st;
    changed;
    window = empty;
    ckpt_prepared = empty;
    vouched = [];
    restarts = 0;
  }

(* The first entry of an association list wins, as [List.assoc]. *)
let table_of l =
  let tbl = Hashtbl.create (List.length l) in
  List.iter (fun (k, x) -> if not (Hashtbl.mem tbl k) then Hashtbl.replace tbl k x) l;
  tbl

let track c (r : Wal_record.t) failover =
  match r.payload with
  | Wal_record.Ckpt_end { snapshot = Some ck } ->
      c.window <- table_of ck.Checkpoint.decisions;
      c.ckpt_prepared <- table_of ck.Checkpoint.prepared;
      c.vouched <- [];
      if failover then apply c.st r else seed c.st ck
  | Wal_record.Txn_commit { tid; _ } ->
      (match Hashtbl.find_opt c.ckpt_prepared tid with
      | Some coord -> c.vouched <- (tid, coord) :: c.vouched
      | None -> ());
      apply c.st r
  | _ -> apply c.st r

(* The pass of the device last read, started again from the first
   frame when [wal] is another device or {!Wal.mutations} moved. *)
let pass c wal =
  match c.pass with
  | Some p when p.wal == wal && (c.stale || Wal.mutations wal = p.mutations) -> p
  | _ ->
      let p = new_pass wal in
      c.pass <- Some p;
      seed c.st empty_base;
      c.window <- Hashtbl.create 1;
      c.ckpt_prepared <- c.window;
      c.vouched <- [];
      c.restarts <- c.restarts + 1;
      p

let sync c wal = scan (pass c wal) (track c)
let advance c wal = sync c wal; analysis_of (pass c wal)

(* Log decisions override the checkpoint's window, and the newest log
   decision for a gid wins. *)
let decisions a =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (gid, cts, _) -> if not (Hashtbl.mem tbl gid) then Hashtbl.replace tbl gid cts)
    a.coord_commits;
  (match a.checkpoint with
  | Some (_, ck) ->
      List.iter
        (fun (gid, cts) -> if not (Hashtbl.mem tbl gid) then Hashtbl.replace tbl gid cts)
        ck.Checkpoint.decisions
  | None -> ());
  tbl

let expect ?resolve a =
  let st = new_state () in
  let ckpt_lsn, base =
    match a.checkpoint with Some (lsn, ck) -> (lsn, ck) | None -> (0, empty_base)
  in
  seed st base;
  List.iter (fun (r : Wal_record.t) -> if r.lsn > ckpt_lsn then apply st r) a.records;
  finish ?resolve ~log:(decisions { a with checkpoint = None }) st

(* ------------------------------------------------------------------ *)
(* The cursor as an incremental oracle *)

let steady_anchored p =
  match (p.last_ckpt, p.steady) with
  | None, None -> true
  | Some (a, _), Some (b, _) -> a = b
  | _ -> false

let expectation c wal =
  let p = pass c wal in
  if steady_anchored p then finish ~log:p.decided c.st else expect (analysis_of p)

let on_pass c ~none f = Option.fold ~none ~some:f c.pass

let decision c gid =
  on_pass c ~none:None (fun p ->
      match Hashtbl.find_opt p.decided gid with
      | Some cts -> Some (cts, `Log)
      | None -> Option.map (fun cts -> (cts, `Window)) (Hashtbl.find_opt c.window gid))

let take_changed c =
  let l = Hashtbl.fold (fun tid () acc -> tid :: acc) c.changed [] in
  Hashtbl.reset c.changed;
  l

let restarts c = c.restarts

let horizon c =
  on_pass c ~none:0 (fun p ->
      match p.steady with Some (_, ck) -> ck.Checkpoint.oracle_next | None -> 0)

let prepared_commits c =
  on_pass c ~none:(0, []) (fun p -> (p.n_prepared_commits, p.f_prepared_commits))

let vouched c =
  on_pass c ~none:[] (fun p ->
      List.rev c.vouched |> List.filter (fun (tid, _) -> not (Hashtbl.mem p.prepared_by tid)))

type outcome = { commits : int list; aborted : bool; loser : bool }

let nothing = { commits = []; aborted = false; loser = false }

type view = {
  outcome : int -> outcome;
  touched : int list;  (* whose outcome the resolution or the fallback decides *)
}

(* Resolution overlays the cursor's tables instead of changing them:
   resolved in-doubt transactions commit, and the rows their writes
   replace stop vouching for their creators. *)
let folded_view c ~lookup =
  let st = c.st in
  let resolved = Hashtbl.create 8 and overlaid = Hashtbl.create 8 in
  let indoubt = indoubt_of st in
  List.iter
    (fun (tid, coord) ->
      match lookup ~tid ~coord with
      | None -> ()
      | Some cts ->
          Hashtbl.replace resolved tid cts;
          Option.iter
            (fun ws -> List.iter (fun (rid, _) -> Hashtbl.replace overlaid rid ()) !ws)
            (Hashtbl.find_opt st.pending tid))
    indoubt;
  let displaced = Hashtbl.create 8 in
  Hashtbl.iter
    (fun rid () ->
      match Hashtbl.find_opt st.rows rid with
      | Some r when r.vs > 0 ->
          Hashtbl.replace displaced r.vs
            (bump r.cts 1 (Option.value ~default:[] (Hashtbl.find_opt displaced r.vs)))
      | _ -> ())
    overlaid;
  let row_commits tid =
    let gone cts =
      Option.value ~default:0 (Option.bind (Hashtbl.find_opt displaced tid) (List.assoc_opt cts))
    in
    match Hashtbl.find_opt st.creators tid with
    | None -> []
    | Some l -> List.concat_map (fun (cts, n) -> List.init (n - gone cts) (fun _ -> cts)) l
  in
  let outcome tid =
    let commits =
      match Hashtbl.find_opt resolved tid with
      | Some cts -> [ cts ]
      | None -> (
          match Hashtbl.find_opt st.committed tid with
          | Some cts -> [ cts ]
          | None -> row_commits tid)
    in
    let aborted = Hashtbl.mem st.aborted tid in
    let loser = Hashtbl.mem st.live tid && not (Hashtbl.mem resolved tid) in
    if commits = [] && not (aborted || loser) then nothing else { commits; aborted; loser }
  in
  { outcome; touched = List.map fst indoubt @ Hashtbl.fold (fun tid _ l -> tid :: l) displaced [] }

(* The outcomes an expectation lists, by transaction. *)
let outcomes (e : expectation) =
  let commits = Hashtbl.create 64 and aborted = Hashtbl.create 16 and losers = Hashtbl.create 16 in
  List.iter
    (fun (tid, cts) ->
      Hashtbl.replace commits tid (cts :: Option.value ~default:[] (Hashtbl.find_opt commits tid)))
    (List.rev e.committed);
  List.iter (fun (tid, _) -> Hashtbl.replace aborted tid ()) e.aborted;
  List.iter (fun tid -> Hashtbl.replace losers tid ()) e.losers;
  let outcome tid =
    match (Hashtbl.find_opt commits tid, Hashtbl.mem aborted tid, Hashtbl.mem losers tid) with
    | None, false, false -> nothing
    | commits, aborted, loser -> { commits = Option.value ~default:[] commits; aborted; loser }
  in
  { outcome; touched = List.map fst e.committed @ List.map fst e.aborted @ e.losers }

(* A log whose newest checkpoint is a failover one falls back to the
   from-scratch expectation: the tables are anchored before it. It
   touches everything in the tables too, so that every outcome is
   judged again when the next steady checkpoint ends the fallback. *)
let views c wal ~lookup =
  let steady = folded_view c ~lookup in
  let p = pass c wal in
  if steady_anchored p then (steady, steady)
  else
    let e = outcomes (expect ~resolve:(fun () -> lookup) (analysis_of p)) in
    let keys tbl acc = Hashtbl.fold (fun tid _ acc -> tid :: acc) tbl acc in
    let st = c.st in
    let touched = keys st.committed (keys st.aborted (keys st.live (keys st.creators e.touched))) in
    ({ e with touched }, steady)

let inject_torn_commit wal ~at =
  let exp = expect (analyze wal) in
  let tid, cts =
    match exp.losers with
    | tid :: _ -> (tid, exp.oracle_floor + 1)
    | [] -> (exp.oracle_floor + 999983, exp.oracle_floor + 999984)
  in
  ignore
    (Wal.inject_raw wal
       (Wal_record.encode_with_bad_crc
          {
            Wal_record.lsn = Wal.next_lsn wal;
            at;
            shard = Wal.shard wal;
            payload = Wal_record.Txn_commit { tid; cts };
          }))
