type seg_version = {
  rid : int;
  vs : int;
  ve : int;
  vs_time : int;
  ve_time : int;
  bytes : int;
  value : int;
  lo : int;
  hi : int;
}

type seg = { seg_id : int; cls : string; hardened : bool; versions : seg_version list }
type row = { rid : int; value : int; vs : int; vs_time : int; cts : int }
type pending_write = { rid : int; value : int; vs_time : int }
type pending = { tid : int; writes : pending_write list }

type t = {
  at : int;
  oracle_next : int;
  live : int list;
  committed : (int * int) list;
  aborted : (int * int) list;
  rows : row list;
  pending : pending list;
  segments : seg list;
  next_seg_id : int;
  prepared : (int * int) list;
  decisions : (int * int) list;
}

(* ------------------------------------------------------------------ *)
(* The snapshot: every member in field order *)

let add_pair o (a, b) =
  Wire.add_int o a;
  Wire.add_int o b

let add_seg_version o (v : seg_version) =
  Wire.add_int o v.rid;
  Wire.add_int o v.vs;
  Wire.add_int o v.ve;
  Wire.add_int o v.vs_time;
  Wire.add_int o v.ve_time;
  Wire.add_int o v.bytes;
  Wire.add_int o v.value;
  Wire.add_int o v.lo;
  Wire.add_int o v.hi

let add_seg o s =
  Wire.add_int o s.seg_id;
  Wire.add_str o s.cls;
  Wire.add_bool o s.hardened;
  Wire.add_list o add_seg_version s.versions

let add_row o (r : row) =
  Wire.add_int o r.rid;
  Wire.add_int o r.value;
  Wire.add_int o r.vs;
  Wire.add_int o r.vs_time;
  Wire.add_int o r.cts

let add_pending_write o (w : pending_write) =
  Wire.add_int o w.rid;
  Wire.add_int o w.value;
  Wire.add_int o w.vs_time

let add_pending o (p : pending) =
  Wire.add_int o p.tid;
  Wire.add_list o add_pending_write p.writes

let write o t =
  Wire.add_int o t.at;
  Wire.add_int o t.oracle_next;
  Wire.add_list o Wire.add_int t.live;
  Wire.add_list o add_pair t.committed;
  Wire.add_list o add_pair t.aborted;
  Wire.add_list o add_row t.rows;
  Wire.add_list o add_pending t.pending;
  Wire.add_list o add_seg t.segments;
  Wire.add_int o t.next_seg_id;
  Wire.add_list o add_pair t.prepared;
  Wire.add_list o add_pair t.decisions

(* Members are read with [let] in written order: OCaml evaluates record
   fields in no fixed order. *)
let scan_pair c =
  let a = Wire.int c in
  let b = Wire.int c in
  (a, b)

let scan_seg_version c =
  let rid = Wire.int c in
  let vs = Wire.int c in
  let ve = Wire.int c in
  let vs_time = Wire.int c in
  let ve_time = Wire.int c in
  let bytes = Wire.int c in
  let value = Wire.int c in
  let lo = Wire.int c in
  let hi = Wire.int c in
  { rid; vs; ve; vs_time; ve_time; bytes; value; lo; hi }

let scan_seg c =
  let seg_id = Wire.int c in
  let cls = Wire.str c in
  let hardened = Wire.bool c in
  let versions = Wire.list c scan_seg_version in
  { seg_id; cls; hardened; versions }

let scan_row c =
  let rid = Wire.int c in
  let value = Wire.int c in
  let vs = Wire.int c in
  let vs_time = Wire.int c in
  let cts = Wire.int c in
  { rid; value; vs; vs_time; cts }

let scan_pending_write c =
  let rid = Wire.int c in
  let value = Wire.int c in
  let vs_time = Wire.int c in
  { rid; value; vs_time }

let scan_pending c =
  let tid = Wire.int c in
  let writes = Wire.list c scan_pending_write in
  { tid; writes }

let scan c =
  let at = Wire.int c in
  let oracle_next = Wire.int c in
  let live = Wire.list c Wire.int in
  let committed = Wire.list c scan_pair in
  let aborted = Wire.list c scan_pair in
  let rows = Wire.list c scan_row in
  let pending = Wire.list c scan_pending in
  let segments = Wire.list c scan_seg in
  let next_seg_id = Wire.int c in
  let prepared = Wire.list c scan_pair in
  let decisions = Wire.list c scan_pair in
  {
    at;
    oracle_next;
    live;
    committed;
    aborted;
    rows;
    pending;
    segments;
    next_seg_id;
    prepared;
    decisions;
  }
