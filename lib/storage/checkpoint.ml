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
(* The snapshot, written and scanned in place *)

let add_pair buf (a, b) =
  Canon.add_char buf '[';
  Canon.add_int buf a;
  Canon.add_char buf ',';
  Canon.add_int buf b;
  Canon.add_char buf ']'

let add_seg_version buf (v : seg_version) =
  Canon.add_member buf "{\"rid\":" v.rid;
  Canon.add_member buf ",\"vs\":" v.vs;
  Canon.add_member buf ",\"ve\":" v.ve;
  Canon.add_member buf ",\"vs_time\":" v.vs_time;
  Canon.add_member buf ",\"ve_time\":" v.ve_time;
  Canon.add_member buf ",\"bytes\":" v.bytes;
  Canon.add_member buf ",\"value\":" v.value;
  Canon.add_member buf ",\"lo\":" v.lo;
  Canon.add_member buf ",\"hi\":" v.hi;
  Canon.add_char buf '}'

let add_seg buf s =
  Canon.add_member buf "{\"seg\":" s.seg_id;
  Canon.add_string buf ",\"cls\":";
  Canon.add_str buf s.cls;
  Canon.add_string buf (if s.hardened then ",\"hardened\":true" else ",\"hardened\":false");
  Canon.add_string buf ",\"versions\":";
  Canon.add_list buf add_seg_version s.versions;
  Canon.add_char buf '}'

let add_row buf (r : row) =
  Canon.add_member buf "{\"rid\":" r.rid;
  Canon.add_member buf ",\"value\":" r.value;
  Canon.add_member buf ",\"vs\":" r.vs;
  Canon.add_member buf ",\"vs_time\":" r.vs_time;
  Canon.add_member buf ",\"cts\":" r.cts;
  Canon.add_char buf '}'

let add_pending_write buf (w : pending_write) =
  Canon.add_member buf "{\"rid\":" w.rid;
  Canon.add_member buf ",\"value\":" w.value;
  Canon.add_member buf ",\"vs_time\":" w.vs_time;
  Canon.add_char buf '}'

let add_pending buf (p : pending) =
  Canon.add_member buf "{\"tid\":" p.tid;
  Canon.add_string buf ",\"writes\":";
  Canon.add_list buf add_pending_write p.writes;
  Canon.add_char buf '}'

let add_pairs buf key = function
  | [] -> ()
  | pairs ->
      Canon.add_string buf key;
      Canon.add_list buf add_pair pairs

let write buf t =
  Canon.add_member buf "{\"at\":" t.at;
  Canon.add_member buf ",\"oracle_next\":" t.oracle_next;
  Canon.add_string buf ",\"live\":";
  Canon.add_list buf Canon.add_int t.live;
  Canon.add_string buf ",\"committed\":";
  Canon.add_list buf add_pair t.committed;
  Canon.add_string buf ",\"aborted\":";
  Canon.add_list buf add_pair t.aborted;
  Canon.add_string buf ",\"rows\":";
  Canon.add_list buf add_row t.rows;
  Canon.add_string buf ",\"pending\":";
  Canon.add_list buf add_pending t.pending;
  Canon.add_string buf ",\"segments\":";
  Canon.add_list buf add_seg t.segments;
  Canon.add_member buf ",\"next_seg_id\":" t.next_seg_id;
  add_pairs buf ",\"prepared\":" t.prepared;
  add_pairs buf ",\"decisions\":" t.decisions;
  Canon.add_char buf '}'

(* Members are read with [let] in written order: OCaml evaluates record
   fields in no fixed order. *)
let scan_pair c =
  Canon.char c '[';
  let a = Canon.int c in
  Canon.char c ',';
  let b = Canon.int c in
  Canon.char c ']';
  (a, b)

let scan_seg_version c =
  let rid = Canon.member c "{\"rid\":" in
  let vs = Canon.member c ",\"vs\":" in
  let ve = Canon.member c ",\"ve\":" in
  let vs_time = Canon.member c ",\"vs_time\":" in
  let ve_time = Canon.member c ",\"ve_time\":" in
  let bytes = Canon.member c ",\"bytes\":" in
  let value = Canon.member c ",\"value\":" in
  let lo = Canon.member c ",\"lo\":" in
  let hi = Canon.member c ",\"hi\":" in
  Canon.char c '}';
  { rid; vs; ve; vs_time; ve_time; bytes; value; lo; hi }

let scan_seg c =
  let seg_id = Canon.member c "{\"seg\":" in
  Canon.expect c ",\"cls\":";
  let cls = Canon.str c in
  Canon.expect c ",\"hardened\":";
  let hardened = Canon.skip c "true" || (Canon.expect c "false"; false) in
  Canon.expect c ",\"versions\":";
  let versions = Canon.list c scan_seg_version in
  Canon.char c '}';
  { seg_id; cls; hardened; versions }

let scan_row c =
  let rid = Canon.member c "{\"rid\":" in
  let value = Canon.member c ",\"value\":" in
  let vs = Canon.member c ",\"vs\":" in
  let vs_time = Canon.member c ",\"vs_time\":" in
  let cts = Canon.member c ",\"cts\":" in
  Canon.char c '}';
  { rid; value; vs; vs_time; cts }

let scan_pending_write c =
  let rid = Canon.member c "{\"rid\":" in
  let value = Canon.member c ",\"value\":" in
  let vs_time = Canon.member c ",\"vs_time\":" in
  Canon.char c '}';
  { rid; value; vs_time }

let scan_pending c =
  let tid = Canon.member c "{\"tid\":" in
  Canon.expect c ",\"writes\":";
  let writes = Canon.list c scan_pending_write in
  Canon.char c '}';
  { tid; writes }

let scan_pairs c key =
  if Canon.skip c key then Canon.list c scan_pair else []

let scan c =
  let at = Canon.member c "{\"at\":" in
  let oracle_next = Canon.member c ",\"oracle_next\":" in
  Canon.expect c ",\"live\":";
  let live = Canon.list c Canon.int in
  Canon.expect c ",\"committed\":";
  let committed = Canon.list c scan_pair in
  Canon.expect c ",\"aborted\":";
  let aborted = Canon.list c scan_pair in
  Canon.expect c ",\"rows\":";
  let rows = Canon.list c scan_row in
  Canon.expect c ",\"pending\":";
  let pending = Canon.list c scan_pending in
  Canon.expect c ",\"segments\":";
  let segments = Canon.list c scan_seg in
  let next_seg_id = Canon.member c ",\"next_seg_id\":" in
  let prepared = scan_pairs c ",\"prepared\":" in
  let decisions = scan_pairs c ",\"decisions\":" in
  Canon.char c '}';
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
