type payload =
  | Txn_begin of { tid : int }
  | Txn_commit of { tid : int; cts : int }
  | Txn_abort of { tid : int; ats : int }
  | Version_insert of { tid : int; rid : int; value : int }
  | Relocate of {
      rid : int;
      vs : int;
      ve : int;
      vs_time : int;
      ve_time : int;
      bytes : int;
      value : int;
      seg_id : int;
      cls : string;
      lo : int;
      hi : int;
    }
  | Seg_harden of { seg_id : int }
  | Seg_drop of { seg_id : int }
  | Seg_cut of { seg_id : int }
  | Ckpt_begin
  | Ckpt_end of { snapshot : Checkpoint.t option }
  | Prepare of { tid : int; coord : int; shards : int list }
  | Coord_commit of { gid : int; cts : int; shards : int list }
  | Coord_abort of { gid : int }
  | Ack of { gid : int; shard : int }
  | Forget of { gid : int }
  | Promote of { epoch : int; node : int }
  | Rep_ack of { epoch : int; node : int; upto : int }

type t = { lsn : int; at : int; shard : int; payload : payload }

(* The kind byte is the constructor's index. *)
let kind = function
  | Txn_begin _ -> 0
  | Txn_commit _ -> 1
  | Txn_abort _ -> 2
  | Version_insert _ -> 3
  | Relocate _ -> 4
  | Seg_harden _ -> 5
  | Seg_drop _ -> 6
  | Seg_cut _ -> 7
  | Ckpt_begin -> 8
  | Ckpt_end _ -> 9
  | Prepare _ -> 10
  | Coord_commit _ -> 11
  | Coord_abort _ -> 12
  | Ack _ -> 13
  | Forget _ -> 14
  | Promote _ -> 15
  | Rep_ack _ -> 16

let kind_names =
  [|
    "txn-begin";
    "txn-commit";
    "txn-abort";
    "version-insert";
    "relocate";
    "seg-harden";
    "seg-drop";
    "seg-cut";
    "ckpt-begin";
    "ckpt-end";
    "2pc-prepare";
    "2pc-commit";
    "2pc-abort";
    "2pc-ack";
    "2pc-forget";
    "rep-promote";
    "rep-ack";
  |]

let kind_name p = kind_names.(kind p)

(* ------------------------------------------------------------------ *)
(* The frame: kind byte, header, payload fields in constructor order,
   CRC-32 trailer *)

let add = Wire.add_int

let add_payload o = function
  | Txn_begin { tid } -> add o tid
  | Txn_commit { tid; cts } ->
      add o tid;
      add o cts
  | Txn_abort { tid; ats } ->
      add o tid;
      add o ats
  | Version_insert { tid; rid; value } ->
      add o tid;
      add o rid;
      add o value
  | Relocate { rid; vs; ve; vs_time; ve_time; bytes; value; seg_id; cls; lo; hi } ->
      add o rid;
      add o vs;
      add o ve;
      add o vs_time;
      add o ve_time;
      add o bytes;
      add o value;
      add o seg_id;
      Wire.add_str o cls;
      add o lo;
      add o hi
  | Seg_harden { seg_id } | Seg_drop { seg_id } | Seg_cut { seg_id } -> add o seg_id
  | Ckpt_begin -> ()
  | Ckpt_end { snapshot = None } -> Wire.add_bool o false
  | Ckpt_end { snapshot = Some ck } ->
      Wire.add_bool o true;
      Checkpoint.write o ck
  | Prepare { tid; coord; shards } ->
      add o tid;
      add o coord;
      Wire.add_list o add shards
  | Coord_commit { gid; cts; shards } ->
      add o gid;
      add o cts;
      Wire.add_list o add shards
  | Coord_abort { gid } | Forget { gid } -> add o gid
  | Ack { gid; shard } ->
      add o gid;
      add o shard
  | Promote { epoch; node } ->
      add o epoch;
      add o node
  | Rep_ack { epoch; node; upto } ->
      add o epoch;
      add o node;
      add o upto

let write o t =
  Wire.add_byte o (kind t.payload);
  add o t.lsn;
  add o t.at;
  add o t.shard;
  add_payload o t.payload

let encode t = Wire.sealed write t ~mask:0

(* A deliberately stale checksum: the frame parses but fails
   verification — the shape of a torn sector whose payload bytes were
   written and whose trailing checksum was not. *)
let encode_with_bad_crc t = Wire.sealed write t ~mask:0x5a5a5a5a

(* Fields are read with [let] in frame order: OCaml evaluates record
   fields in no fixed order. *)
let int = Wire.int

let scan_payload c = function
  | 0 -> Txn_begin { tid = int c }
  | 1 ->
      let tid = int c in
      let cts = int c in
      Txn_commit { tid; cts }
  | 2 ->
      let tid = int c in
      let ats = int c in
      Txn_abort { tid; ats }
  | 3 ->
      let tid = int c in
      let rid = int c in
      let value = int c in
      Version_insert { tid; rid; value }
  | 4 ->
      let rid = int c in
      let vs = int c in
      let ve = int c in
      let vs_time = int c in
      let ve_time = int c in
      let bytes = int c in
      let value = int c in
      let seg_id = int c in
      let cls = Wire.str c in
      let lo = int c in
      let hi = int c in
      Relocate { rid; vs; ve; vs_time; ve_time; bytes; value; seg_id; cls; lo; hi }
  | 5 -> Seg_harden { seg_id = int c }
  | 6 -> Seg_drop { seg_id = int c }
  | 7 -> Seg_cut { seg_id = int c }
  | 8 -> Ckpt_begin
  | 9 -> Ckpt_end { snapshot = (if Wire.bool c then Some (Checkpoint.scan c) else None) }
  | 10 ->
      let tid = int c in
      let coord = int c in
      let shards = Wire.list c int in
      Prepare { tid; coord; shards }
  | 11 ->
      let gid = int c in
      let cts = int c in
      let shards = Wire.list c int in
      Coord_commit { gid; cts; shards }
  | 12 -> Coord_abort { gid = int c }
  | 13 ->
      let gid = int c in
      let shard = int c in
      Ack { gid; shard }
  | 14 -> Forget { gid = int c }
  | 15 ->
      let epoch = int c in
      let node = int c in
      Promote { epoch; node }
  | 16 ->
      let epoch = int c in
      let node = int c in
      let upto = int c in
      Rep_ack { epoch; node; upto }
  | _ -> raise Wire.Malformed

(* One cursor per domain, pointed at each frame in turn. *)
let scan_cursor = Domain.DLS.new_key (fun () -> { Wire.s = ""; lim = 0; pos = 0 })

let scan_frame ~check_crc c s =
  let body = String.length s - 4 in
  if body < 0 then raise Wire.Malformed;
  if check_crc && Crc32.update_sub 0 s 0 body <> Int32.to_int (String.get_int32_le s body) land 0xffff_ffff
  then raise Wire.Malformed;
  c.Wire.s <- s;
  c.lim <- body;
  c.pos <- 0;
  let k = Wire.byte c in
  let lsn = int c in
  let at = int c in
  let shard = int c in
  let payload = scan_payload c k in
  if c.pos <> c.lim then raise Wire.Malformed;
  { lsn; at; shard; payload }

(* The cursor lets go of the frame whether or not it scanned: a
   checkpoint frame can be hundreds of KB. *)
let scan ~check_crc s =
  let c = Domain.DLS.get scan_cursor in
  match scan_frame ~check_crc c s with
  | r ->
      c.s <- "";
      r
  | exception e ->
      c.s <- "";
      raise e

let decode ?(check_crc = true) repr =
  match scan ~check_crc repr with
  | r -> Ok r
  | exception Wire.Malformed -> Error "malformed frame, or its crc does not match"

(* Only a frame whose kind byte is [Txn_commit]'s (1) or [Txn_abort]'s
   (2) is scanned. *)
let outcome_tid repr =
  if repr <> "" && (repr.[0] = '\001' || repr.[0] = '\002') then
    match scan ~check_crc:true repr with
    | { payload = Txn_commit { tid; _ } | Txn_abort { tid; _ }; _ } -> Some tid
    | _ | (exception Wire.Malformed) -> None
  else None
