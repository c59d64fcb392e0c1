(* Reference log analysis for the recovery tests: the straightforward
   formulation of {!Wal_recovery.analyze}. It decodes the whole
   trustworthy prefix into a list, folds the 2PC facts over it, then
   walks back from the tail to the two checkpoint anchors and keeps
   the records after the steady one. It holds every decoded frame, so
   it is only fit for small logs. *)

open Wal_recovery

(* A failover checkpoint is the first [Ckpt_end] after a [Promote]. *)
let failover_ckpts records =
  let promoted = ref false in
  List.filter_map
    (fun (r : Wal_record.t) ->
      match r.payload with
      | Wal_record.Promote _ ->
          promoted := true;
          None
      | Wal_record.Ckpt_end _ ->
          let failover = !promoted in
          promoted := false;
          if failover then Some r.lsn else None
      | _ -> None)
    records

let analyze ?(check_crc = true) wal =
  let frames = Wal.frames wal in
  let own_shard = Wal.shard wal in
  let rec scan acc = function
    | [] -> List.rev acc
    | (_, repr) :: rest -> (
        match Wal_record.decode ~check_crc repr with
        | Ok r when r.Wal_record.shard = own_shard -> scan (r :: acc) rest
        | Ok _ | Error _ -> List.rev acc)
  in
  let trusted = scan [] frames in
  let failover = failover_ckpts trusted in
  (* Walking back: the newest complete checkpoint is the anchor; the
     newest one that is not a failover checkpoint is the steady
     anchor, and the records after it are kept ([newer] gathers them
     oldest first). *)
  let rec anchors last newer = function
    | [] -> (last, None, newer)
    | (r : Wal_record.t) :: rest -> (
        let strip r =
          match r.Wal_record.payload with
          | Wal_record.Ckpt_end { snapshot = Some _ } ->
              { r with payload = Wal_record.Ckpt_end { snapshot = None } }
          | _ -> r
        in
        match r.payload with
        | Wal_record.Ckpt_end { snapshot = Some ck } when not (List.mem r.lsn failover) ->
            let here = Some (r.lsn, ck) in
            ((if Option.is_none last then here else last), here, newer)
        | Wal_record.Ckpt_end { snapshot = Some ck } when Option.is_none last ->
            anchors (Some (r.lsn, ck)) (strip r :: newer) rest
        | _ -> anchors last (strip r :: newer) rest)
  in
  let checkpoint, steady_checkpoint, kept = anchors None [] (List.rev trusted) in
  (* Whole-prefix 2PC facts, newest first. *)
  let prepared = Hashtbl.create 16 in
  let coord_commits = ref [] and coord_aborts = ref [] and prepares = ref [] in
  let forgets = ref [] and prepared_commits = ref [] in
  List.iter
    (fun (r : Wal_record.t) ->
      match r.payload with
      | Wal_record.Prepare { tid; coord; _ } ->
          Hashtbl.replace prepared tid coord;
          prepares := (tid, coord) :: !prepares
      | Wal_record.Txn_commit { tid; _ } -> (
          match Hashtbl.find_opt prepared tid with
          | Some coord -> prepared_commits := (tid, coord) :: !prepared_commits
          | None -> ())
      | Wal_record.Coord_commit { gid; cts; shards } ->
          coord_commits := (gid, cts, shards) :: !coord_commits
      | Wal_record.Coord_abort { gid } -> coord_aborts := gid :: !coord_aborts
      | Wal_record.Forget { gid } -> forgets := gid :: !forgets
      | _ -> ())
    trusted;
  let read = List.length trusted in
  {
    records = kept;
    survivors = Wal.discarded wal + read;
    truncate_lsn = (match List.rev trusted with r :: _ -> r.Wal_record.lsn | [] -> 0);
    dropped = List.length frames - read;
    checkpoint;
    steady_checkpoint;
    coord_commits = !coord_commits;
    coord_aborts = !coord_aborts;
    prepares = !prepares;
    forgets = !forgets;
    prepared_commits = !prepared_commits;
  }

(* Log shipping as it was before frames went by reference: the
   primary's tail read as fresh [(lsn, repr)] tuples, and a mirror that
   appends a copy of each frame it receives. The mirror is a model of a
   durable device holding only what shipping, appends and faults
   change: its frames, in LSN order, its LSN cursor and its crash
   base. *)

let frames_from wal ~lsn = List.filter (fun (l, _) -> l > lsn) (Wal.frames wal)

type mirror = {
  mutable frames : (int * string) list;
  mutable next_lsn : int;
  mutable crash_base : int;
}

let mirror () = { frames = []; next_lsn = 1; crash_base = Wal.bootstrap_lsn }

let receive m ~lsn ~repr =
  if lsn < m.next_lsn then `Duplicate
  else if lsn > m.next_lsn then `Gap
  else begin
    m.frames <- m.frames @ [ (lsn, String.sub repr 0 (String.length repr)) ];
    m.next_lsn <- lsn + 1;
    `Applied
  end

let log m ~shard payload =
  let lsn = m.next_lsn in
  m.frames <- m.frames @ [ (lsn, Wal_record.encode { Wal_record.lsn; at = 0; shard; payload }) ];
  m.next_lsn <- lsn + 1

let keep m lsn = m.frames <- List.filter (fun (l, _) -> l <= lsn) m.frames
let crash m ~keep_lsn = keep m (max keep_lsn m.crash_base)
let truncate_to m ~lsn = keep m lsn

let corrupt_frame m ~lsn f =
  List.mem_assoc lsn m.frames
  && begin
       m.frames <- List.map (fun (l, r) -> if l = lsn then (l, f r) else (l, r)) m.frames;
       true
     end

let adopt m ~src =
  m.frames <- Wal.frames src;
  m.next_lsn <- Wal.next_lsn src;
  m.crash_base <- Wal.crash_base src
