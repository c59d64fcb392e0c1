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

(* The whole-prefix 2PC facts, folded record by record in LSN order. *)
type facts = {
  mutable f_coord_commits : (int * int * int list) list;
  mutable f_coord_aborts : int list;
  mutable f_prepares : (int * int) list;
  mutable f_forgets : int list;
  mutable f_prepared_commits : (int * int) list;
  f_prepared : (int, int) Hashtbl.t;  (* tid -> coord of its latest Prepare *)
  mutable f_promoted : bool;  (* a Promote since the last Ckpt_end *)
}

let new_facts () =
  {
    f_coord_commits = [];
    f_coord_aborts = [];
    f_prepares = [];
    f_forgets = [];
    f_prepared_commits = [];
    f_prepared = Hashtbl.create 16;
    f_promoted = false;
  }

(* Folds [r] into [f]; [true] iff [r] is a failover checkpoint: the
   first [Ckpt_end] after a [Promote], which a promotion's recovery
   writes. *)
let note f (r : Wal_record.t) =
  match r.payload with
  | Wal_record.Prepare { tid; coord; _ } ->
      Hashtbl.replace f.f_prepared tid coord;
      f.f_prepares <- (tid, coord) :: f.f_prepares;
      false
  | Wal_record.Txn_commit { tid; _ } ->
      (match Hashtbl.find_opt f.f_prepared tid with
      | Some coord -> f.f_prepared_commits <- (tid, coord) :: f.f_prepared_commits
      | None -> ());
      false
  | Wal_record.Coord_commit { gid; cts; shards } ->
      f.f_coord_commits <- (gid, cts, shards) :: f.f_coord_commits;
      false
  | Wal_record.Coord_abort { gid } ->
      f.f_coord_aborts <- gid :: f.f_coord_aborts;
      false
  | Wal_record.Forget { gid } ->
      f.f_forgets <- gid :: f.f_forgets;
      false
  | Wal_record.Promote _ ->
      f.f_promoted <- true;
      false
  | Wal_record.Ckpt_end _ ->
      let failover = f.f_promoted in
      f.f_promoted <- false;
      failover
  | _ -> false

(* Kept records carry no checkpoint snapshot: the decoded anchors are
   [checkpoint] and [steady_checkpoint]. *)
let strip (r : Wal_record.t) =
  match r.payload with
  | Wal_record.Ckpt_end { snapshot = Some _ } -> { r with payload = Wal_record.Ckpt_end { snapshot = None } }
  | _ -> r

let make ~records ~survivors ~truncate_lsn ~dropped ~checkpoint ~steady_checkpoint f =
  {
    records;
    survivors;
    truncate_lsn;
    dropped;
    checkpoint;
    steady_checkpoint;
    coord_commits = f.f_coord_commits;
    coord_aborts = f.f_coord_aborts;
    prepares = f.f_prepares;
    forgets = f.f_forgets;
    prepared_commits = f.f_prepared_commits;
  }

type cursor = {
  stale : bool;
  mutable wal : Wal.t option;
  mutable mutations : int;
  mutable seen_lsn : int;  (* LSN of the last frame read *)
  mutable read : int;  (* frames read, trustworthy or not *)
  mutable torn : bool;  (* a bad frame ended the trustworthy prefix *)
  mutable survivors : int;
  mutable truncate_lsn : int;
  mutable tail : Wal_record.t list;  (* after the steady anchor, newest first *)
  mutable last_ckpt : (int * Checkpoint.t) option;
  mutable steady : (int * Checkpoint.t) option;
  mutable facts : facts;
}

let cursor ?(stale = false) () =
  {
    stale;
    wal = None;
    mutations = 0;
    seen_lsn = 0;
    read = 0;
    torn = false;
    survivors = 0;
    truncate_lsn = 0;
    tail = [];
    last_ckpt = None;
    steady = None;
    facts = new_facts ();
  }

let restart c wal =
  c.wal <- Some wal;
  c.mutations <- Wal.mutations wal;
  c.seen_lsn <- 0;
  c.read <- 0;
  c.torn <- false;
  c.survivors <- 0;
  c.truncate_lsn <- 0;
  c.tail <- [];
  c.last_ckpt <- None;
  c.steady <- None;
  c.facts <- new_facts ()

let fold c (r : Wal_record.t) =
  c.survivors <- c.survivors + 1;
  c.truncate_lsn <- r.lsn;
  let failover = note c.facts r in
  match r.payload with
  | Wal_record.Ckpt_end { snapshot } -> (
      match snapshot with
      | Some ck when not failover ->
          c.last_ckpt <- Some (r.lsn, ck);
          c.steady <- c.last_ckpt;
          c.tail <- []
      | Some ck ->
          c.last_ckpt <- Some (r.lsn, ck);
          c.tail <- strip r :: c.tail
      | None -> c.tail <- strip r :: c.tail)
  | _ -> c.tail <- r :: c.tail

(* Read the frames past [c.seen_lsn] and return the analysis of the
   whole log. Decoding stops at the first frame that fails to parse or
   verify: everything beyond a torn/corrupt frame is untrustworthy even
   if it happens to checksum, because the device gave no ordering
   guarantee past the tear. A frame tagged for a different shard is
   treated the same way — each shard's log is its own LSN namespace,
   and an interleaved foreign frame means the write path crossed
   shards, which replay must refuse rather than absorb. *)
let scan c ~check_crc wal =
  let own_shard = Wal.shard wal in
  Wal.iter_from wal ~lsn:c.seen_lsn (fun lsn repr ->
      c.seen_lsn <- lsn;
      c.read <- c.read + 1;
      if not c.torn then
        match Wal_record.decode ~check_crc repr with
        | Ok r when r.Wal_record.shard = own_shard -> fold c r
        | Ok _ | Error _ -> c.torn <- true);
  make ~records:(List.rev c.tail) ~survivors:(Wal.discarded wal + c.survivors)
    ~truncate_lsn:c.truncate_lsn
    ~dropped:(c.read - c.survivors) ~checkpoint:c.last_ckpt ~steady_checkpoint:c.steady c.facts

let advance c wal =
  let same_device = match c.wal with Some w -> w == wal | None -> false in
  if (not same_device) || ((not c.stale) && Wal.mutations wal <> c.mutations) then restart c wal;
  scan c ~check_crc:true wal

(* The from-scratch analysis is one pass of a fresh cursor: it holds
   the records after the newest anchor and the anchors' snapshots,
   never the whole decoded log. *)
let analyze ?(check_crc = true) wal =
  let c = cursor () in
  restart c wal;
  scan c ~check_crc wal

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

let expect ?resolve analysis =
  let base =
    match analysis.checkpoint with
    | Some (_, ckpt) -> ckpt
    | None ->
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
  in
  let ckpt_lsn = match analysis.checkpoint with Some (lsn, _) -> lsn | None -> 0 in
  let committed : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let aborted : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let live : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let rows : (int, Checkpoint.row) Hashtbl.t = Hashtbl.create 256 in
  let pending : (int, (int * Checkpoint.pending_write) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let segs : (int, seg_acc) Hashtbl.t = Hashtbl.create 64 in
  let prepared : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let decisions = decisions analysis in
  let dead_segs = ref [] in
  let max_ts = ref (base.Checkpoint.oracle_next - 1) in
  let see ts = if ts > !max_ts then max_ts := ts in
  let next_seg_id = ref base.Checkpoint.next_seg_id in
  List.iter (fun (tid, cts) -> Hashtbl.replace committed tid cts; see tid; see cts)
    base.Checkpoint.committed;
  List.iter (fun (tid, ats) -> Hashtbl.replace aborted tid ats; see tid; see ats)
    base.Checkpoint.aborted;
  List.iter (fun tid -> Hashtbl.replace live tid (); see tid) base.Checkpoint.live;
  List.iter (fun (r : Checkpoint.row) -> Hashtbl.replace rows r.rid r; see r.vs; see r.cts)
    base.Checkpoint.rows;
  List.iter
    (fun (p : Checkpoint.pending) ->
      see p.tid;
      Hashtbl.replace pending p.tid
        (ref (List.map (fun (w : Checkpoint.pending_write) -> (w.rid, w)) p.writes)))
    base.Checkpoint.pending;
  List.iter
    (fun (s : Checkpoint.seg) ->
      Hashtbl.replace segs s.seg_id
        { sa_cls = s.cls; sa_hardened = s.hardened; sa_versions = List.rev s.versions };
      if s.seg_id >= !next_seg_id then next_seg_id := s.seg_id + 1)
    base.Checkpoint.segments;
  List.iter
    (fun (tid, coord) ->
      see tid;
      Hashtbl.replace prepared tid coord;
      Hashtbl.replace live tid ())
    base.Checkpoint.prepared;
  (* Coordinator decisions come from the whole trustworthy prefix, not
     just the replay window: another shard's in-doubt participant may
     ask about a transaction whose decision predates this shard's last
     checkpoint (already forgotten here, still unresolved there). *)
  List.iter
    (fun (gid, cts) ->
      see gid;
      see cts)
    base.Checkpoint.decisions;
  let note_write tid (w : Checkpoint.pending_write) =
    let writes =
      match Hashtbl.find_opt pending tid with
      | Some ws -> ws
      | None ->
          let ws = ref [] in
          Hashtbl.replace pending tid ws;
          ws
    in
    (* Same-transaction overwrite: only the final value exists. *)
    writes := (w.rid, w) :: List.remove_assoc w.rid !writes
  in
  let replayed = ref 0 in
  let apply (r : Wal_record.t) =
    incr replayed;
    match r.payload with
    | Wal_record.Txn_begin { tid } ->
        see tid;
        Hashtbl.replace live tid ()
    | Wal_record.Txn_commit { tid; cts } ->
        see tid;
        see cts;
        Hashtbl.remove live tid;
        Hashtbl.remove prepared tid;
        Hashtbl.replace committed tid cts;
        (match Hashtbl.find_opt pending tid with
        | None -> ()
        | Some ws ->
            Hashtbl.remove pending tid;
            List.iter
              (fun (_, (w : Checkpoint.pending_write)) ->
                Hashtbl.replace rows w.rid
                  {
                    Checkpoint.rid = w.rid;
                    value = w.value;
                    vs = tid;
                    vs_time = w.vs_time;
                    cts;
                  })
              (List.rev !ws))
    | Wal_record.Txn_abort { tid; ats } ->
        see tid;
        see ats;
        Hashtbl.remove live tid;
        Hashtbl.remove pending tid;
        Hashtbl.remove prepared tid;
        Hashtbl.replace aborted tid ats
    | Wal_record.Version_insert { tid; rid; value } ->
        see tid;
        note_write tid { Checkpoint.rid; value; vs_time = r.at }
    | Wal_record.Relocate { rid; vs; ve; vs_time; ve_time; bytes; value; seg_id; cls; lo; hi }
      ->
        see vs;
        see ve;
        see lo;
        see hi;
        if seg_id >= !next_seg_id then next_seg_id := seg_id + 1;
        let acc =
          match Hashtbl.find_opt segs seg_id with
          | Some acc -> acc
          | None ->
              let acc = { sa_cls = cls; sa_hardened = false; sa_versions = [] } in
              Hashtbl.replace segs seg_id acc;
              acc
        in
        acc.sa_versions <-
          { Checkpoint.rid; vs; ve; vs_time; ve_time; bytes; value; lo; hi }
          :: acc.sa_versions
    | Wal_record.Seg_harden { seg_id } -> (
        match Hashtbl.find_opt segs seg_id with
        | Some acc -> acc.sa_hardened <- true
        | None -> ())
    | Wal_record.Seg_drop { seg_id } | Wal_record.Seg_cut { seg_id } ->
        Hashtbl.remove segs seg_id;
        dead_segs := seg_id :: !dead_segs
    | Wal_record.Prepare { tid; coord; shards = _ } ->
        see tid;
        (* Prepared and not yet resolved locally: the transaction is
           in-doubt, not a loser — rollback must wait for the
           coordinator's verdict. *)
        Hashtbl.replace prepared tid coord;
        Hashtbl.replace live tid ()
    | Wal_record.Coord_commit { gid; cts; shards = _ } ->
        see gid;
        see cts;
        Hashtbl.replace decisions gid cts
    | Wal_record.Coord_abort { gid } | Wal_record.Ack { gid; _ } | Wal_record.Forget { gid } ->
        (* Presumed abort: the absence of a commit decision already
           means abort, and acks/forgets only trim the coordinator's
           in-doubt table. *)
        see gid
    | Wal_record.Promote _ | Wal_record.Rep_ack _ ->
        (* Replication bookkeeping: fencing markers and ship/ack
           watermarks carry no row state — replay skips them. *)
        ()
    | Wal_record.Ckpt_begin | Wal_record.Ckpt_end _ ->
        (* Only the last complete checkpoint is the replay base; a
           trailing Ckpt_begin whose end was lost is ignored. *)
        ()
  in
  List.iter
    (fun (r : Wal_record.t) -> if r.Wal_record.lsn > ckpt_lsn then apply r)
    analysis.records;
  (* In-doubt resolution: a transaction that prepared here but has no
     local outcome asks the coordinator. A durable Coord_commit means
     commit (apply the pending writes at its commit timestamp); no
     answer means presumed abort — the transaction stays a loser and
     the caller rolls it back with a CLR like any other. *)
  let indoubt_list =
    Hashtbl.fold
      (fun tid coord acc -> if Hashtbl.mem live tid then (tid, coord) :: acc else acc)
      prepared []
    |> List.sort compare
  in
  let resolved_commits = ref [] in
  (match resolve with
  | Some make_lookup when indoubt_list <> [] ->
      let lookup = make_lookup () in
      List.iter
        (fun (tid, coord) ->
          match lookup ~tid ~coord with
          | None -> ()
          | Some cts ->
              see cts;
              resolved_commits := (tid, cts) :: !resolved_commits;
              Hashtbl.remove live tid;
              Hashtbl.replace committed tid cts;
              (match Hashtbl.find_opt pending tid with
              | None -> ()
              | Some ws ->
                  Hashtbl.remove pending tid;
                  List.iter
                    (fun (_, (w : Checkpoint.pending_write)) ->
                      Hashtbl.replace rows w.rid
                        {
                          Checkpoint.rid = w.rid;
                          value = w.value;
                          vs = tid;
                          vs_time = w.vs_time;
                          cts;
                        })
                    (List.rev !ws)))
        indoubt_list
  | _ -> ());
  let committed_list =
    Hashtbl.fold (fun tid cts acc -> (tid, cts) :: acc) committed []
  in
  (* Commit entries for the creators of recovered rows are part of the
     contract even when they predate the checkpoint window: write
     conflict checks on a recovered row look its creator up in the
     commit log. *)
  let committed_list =
    Hashtbl.fold
      (fun _ (r : Checkpoint.row) acc ->
        if r.vs > 0 && not (Hashtbl.mem committed r.vs) then (r.vs, r.cts) :: acc else acc)
      rows committed_list
  in
  {
    committed = List.sort compare committed_list;
    aborted = Hashtbl.fold (fun tid ats acc -> (tid, ats) :: acc) aborted [] |> List.sort compare;
    losers = Hashtbl.fold (fun tid () acc -> tid :: acc) live [] |> List.sort compare;
    rows = Hashtbl.fold (fun _ r acc -> r :: acc) rows []
           |> List.sort (fun (a : Checkpoint.row) b -> compare a.rid b.rid);
    segments =
      Hashtbl.fold
        (fun seg_id acc l ->
          {
            seg_id;
            cls = acc.sa_cls;
            hardened = acc.sa_hardened;
            versions = List.rev acc.sa_versions;
          }
          :: l)
        segs []
      |> List.sort (fun a b -> compare a.seg_id b.seg_id);
    dead_segs = List.sort_uniq compare !dead_segs;
    next_seg_id = !next_seg_id;
    oracle_floor = !max_ts + 1;
    replayed = !replayed;
    indoubt = indoubt_list;
    resolved_commits = List.sort compare !resolved_commits;
    decisions = Hashtbl.fold (fun gid cts acc -> (gid, cts) :: acc) decisions [] |> List.sort compare;
  }

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
